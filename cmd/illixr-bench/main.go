// Command illixr-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	illixr-bench -exp all            # everything (≈ a few minutes)
//	illixr-bench -exp fig3           # one experiment
//	illixr-bench -exp table5 -duration 10
//	illixr-bench -exp network,qos -out-dir /tmp/bench
//
// Experiments: table1 table2 table3 table4 table5 table6 table7
// fig3 fig4 fig5 fig6 fig7 fig8 ablation-vio faults observability
// parallel network qos all
//
// The last four also write BENCH_<exp>.json into -out-dir;
// scripts/benchcheck gates those files. An id that names no experiment
// exits 2 with the list of valid ones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"illixr/internal/bench"
	"illixr/internal/netxr/node"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or all (an unknown id lists them)")
	var o bench.Options
	flag.Float64Var(&o.Duration, "duration", 30, "virtual seconds per integrated run (the paper uses ~30)")
	flag.Int64Var(&o.Seed, "seed", 42, "seed for every link process, fault schedule and controller")
	flag.StringVar(&o.OutDir, "out-dir", ".", "directory the BENCH_<exp>.json reports are written to")
	flag.StringVar(&o.FaultScenario, "fault-scenario", "light", "fault scenario for -exp faults (vio-stall|light|stress)")
	flag.Parse()
	// a run of zero or negative length panics drawing its bars, or prints
	// a table from nothing: refuse it as flag's own parse errors are refused
	if err := node.CheckPositive(flag.CommandLine, "duration"); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	if err := bench.Run(os.Stdout, *exp, o); err != nil {
		fmt.Fprintln(os.Stderr, "illixr-bench:", err)
		if errors.Is(err, bench.ErrUnknownExperiment) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// Command benchmark measures the real ILLIXR stack on the wall clock: four
// workloads, end-to-end metrics with tracing off, and per-layer metrics
// from an outside-in trace. README.md describes every name it prints.
//
//	go run ./benchmark --workload offload_paced --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -seed 1                 # a set: every workload three times
//	go run ./benchmark -seed 1 -traced         # the same with the trace on
//	go run ./benchmark -compare a.json b.json  # apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line (one of "+strings.Join(workloadNames, ", ")+")")
		seed     = flag.Int64("seed", 1, "seed for every generated input (dataset, scene, resume tokens)")
		seconds  = flag.Float64("seconds", 12, "length of one timed window in seconds")
		trace    = flag.Int("trace", 0, "with -workload: 1 records the outside-in trace and reports the per-layer metrics")
		traced   = flag.Bool("traced", false, "set mode: run every workload with the trace on")
		out      = flag.String("out", "", "set mode: result file (default benchmark/out/set-seed<N>[-traced].json)")
		compare  = flag.Bool("compare", false, "compare two set files given as arguments against BENCHMARK.json's bounds")
		golden   = flag.Bool("write-golden", false, "rewrite testdata/live_golden.json for -seed (after a deliberate change to what live_pipeline displays)")
	)
	flag.Parse()

	switch {
	case *golden:
		if err := writeGolden(*seed); err != nil {
			fatalf("%v", err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two set files")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1))
	default:
		os.Exit(runSet(*seed, *seconds, *traced, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// host is recorded next to every number.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOARCH     string `json:"goarch"`
}

func readHost() host {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		GOARCH:     runtime.GOARCH,
	}
}

// sessionsFor sizes the load for the host: one client session (and one
// kernel worker) per core, at most four.
func sessionsFor(h host) int {
	if h.NProc < 4 {
		return h.NProc
	}
	return 4
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"failed_checks,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Detail carries the workload's own named readings (the issue's
	// metric names) and the sample counts behind the percentiles.
	Detail map[string]metric `json:"detail,omitempty"`
	// Checksums are live_pipeline's displayed-frame fingerprints, one per
	// 60 frames.
	Checksums []string `json:"checksums,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) detail(name string, v float64, unit string) {
	r.Detail[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// runOne is the driver's entry: one workload, one window, one JSON line.
func runOne(name string, seed int64, seconds float64, traced bool) int {
	if !knownWorkload(name) {
		fatalf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	res := runWorkload(name, seed, seconds, traced)
	printResult(os.Stdout, res)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
	return 0
}

// printResult writes the human-readable view of a run.
func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%v  host: nproc=%d GOMAXPROCS=%d %s %s linux-%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GOARCH, r.Host.Kernel)
	for _, name := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, name := range sortedKeys(r.Detail) {
		if _, dup := r.Metrics[name]; !dup {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", name, r.Detail[name].Value, r.Detail[name].Unit)
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", c)
	}
}

// window converts the flag into the timed window's duration.
func window(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Options are illixr-bench's knobs. Everything else about an experiment
// is a constant: the sizes below are the ones the checked-in
// BENCH_*.json files were made with.
type Options struct {
	Duration      float64 // virtual seconds per integrated run
	Seed          int64   // every seeded link, schedule and controller
	OutDir        string  // where BENCH_<exp>.json files land
	FaultScenario string  // for the faults experiment
}

const (
	qualityFrames   = 8
	parallelWorkers = 4
	parallelIters   = 5
	networkSessions = 8
)

type runFunc func(w io.Writer, o Options, m *evalMatrix) (report any, err error)

// experiment is one row of the harness: run renders to w, and a non-nil
// report is written to BENCH_<name>.json.
type experiment struct {
	name   string
	run    runFunc
	matrix bool // derived from the 12-run evaluation matrix
	noGap  bool // renders its own trailing blank line
}

func static(f func(io.Writer)) runFunc {
	return func(w io.Writer, _ Options, _ *evalMatrix) (any, error) { f(w); return nil, nil }
}

func figure(f func(io.Writer, *evalMatrix)) runFunc {
	return func(w io.Writer, _ Options, m *evalMatrix) (any, error) { f(w, m); return nil, nil }
}

var experiments = []experiment{
	{name: "table1", run: static(Table1)},
	{name: "table2", run: static(Table2)},
	{name: "table3", run: static(Table3)},
	{name: "fig3", run: figure(fig3), matrix: true, noGap: true},
	{name: "fig4", run: figure(fig4), matrix: true},
	{name: "fig5", run: figure(fig5), matrix: true},
	{name: "fig6", run: figure(fig6), matrix: true},
	{name: "fig7", run: figure(fig7), matrix: true},
	{name: "table4", run: figure(table4), matrix: true},
	{name: "table5", run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		fmt.Fprintln(w, "Running the offline image-quality pipeline (Table V)...")
		table5(w, o.Duration, qualityFrames)
		return nil, nil
	}},
	{name: "table6", noGap: true, run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		Table6(w, o.Duration)
		return nil, nil
	}},
	{name: "table7", run: static(Table7)},
	{name: "fig8", run: static(Fig8)},
	{name: "ablation-vio", run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		AblationVIO(w, o.Duration)
		return nil, nil
	}},
	{name: "faults", run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		_, err := faultScenario(w, o.FaultScenario, o.Duration, o.Seed)
		return nil, err
	}},
	{name: "observability", run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		return observability(w, o.Duration), nil
	}},
	{name: "parallel", run: func(w io.Writer, _ Options, _ *evalMatrix) (any, error) {
		return parallelExperiment(w, parallelWorkers, parallelIters), nil
	}},
	{name: "network", run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		return networkExperiment(w, networkSessions, o.Seed)
	}},
	{name: "qos", run: func(w io.Writer, o Options, _ *evalMatrix) (any, error) {
		return qosExperiment(w, o.Seed)
	}},
}

// ErrUnknownExperiment is returned by Run for an id not in the table.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Run executes the comma-separated experiment ids ("all" for every one)
// in table order, rendering to w and writing each report into o.OutDir.
// An id that names no experiment fails the whole call before anything
// runs, so a typo cannot pass as an empty success.
func Run(w io.Writer, ids string, o Options) error {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	wants := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(names, id) {
			return fmt.Errorf("%w %q (valid: %s)", ErrUnknownExperiment, id, strings.Join(names, " "))
		}
		wants[id] = true
	}

	selected := func(e experiment) bool { return wants["all"] || wants[e.name] }

	var m *evalMatrix
	for _, e := range experiments {
		if e.matrix && m == nil && selected(e) {
			fmt.Fprintf(w, "Running the 4-app x 3-platform evaluation matrix (%.0f s virtual each)...\n\n", o.Duration)
			m = runMatrix(o.Duration)
		}
	}
	for _, e := range experiments {
		if !selected(e) {
			continue
		}
		rep, err := e.run(w, o, m)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if rep != nil {
			path := filepath.Join(o.OutDir, "BENCH_"+e.name+".json")
			if err := writeReport(path, rep); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Fprintf(w, "wrote %s\n", path)
		}
		if !e.noGap {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// marshalReport is the one encoding of every BENCH_*.json document.
func marshalReport(rep any) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeReport encodes rep and only then creates path, so a report that
// cannot be encoded (a NaN or Inf measurement) leaves no file behind.
func writeReport(path string, rep any) error {
	b, err := marshalReport(rep)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, b, 0o644)
}

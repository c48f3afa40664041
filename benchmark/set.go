package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// setFile is what a set of runs leaves behind and what -compare reads.
type setFile struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Traced  bool      `json:"traced"`
	Host    host      `json:"host"`
	Runs    []*result `json:"runs"`
}

// values collects one metric's readings over a workload's runs.
func (s *setFile) values(workload, name string) (vals []float64, unit string) {
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			unit = m.Unit
		}
	}
	return vals, unit
}

// failures totals a workload's operations over its runs, and counts the
// runs that failed an operation or an output check.
func (s *setFile) failures(workload string) (failed, attempted, incorrect int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
			if !r.Correct {
				incorrect++
			}
		}
	}
	return failed, attempted, incorrect
}

// runs counts a workload's runs in the set.
func (s *setFile) runs(workload string) int {
	n := 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			n++
		}
	}
	return n
}

const (
	// setRepeats is how many times a set runs each workload.
	setRepeats = 3
	// tracedSetShare shortens the windows of a traced set.
	tracedSetShare = 0.75
)

// runSet runs every workload setRepeats times in this process, prints each
// run and then the median and quartiles per metric, and writes the set.
func runSet(seed int64, seconds float64, traced bool, out string) int {
	if traced {
		// the traced set is for attribution, not for bounds: shorter windows
		// keep it under three minutes
		seconds *= tracedSetShare
	}
	set := &setFile{Seed: seed, Seconds: seconds, Traced: traced, Host: readHost()}
	ok := true
	for _, w := range workloadNames {
		var frames [][]string
		for i := 0; i < setRepeats; i++ {
			res := runWorkload(w, seed, seconds, traced)
			printResult(os.Stdout, res)
			set.Runs = append(set.Runs, res)
			ok = ok && res.Correct
			if w == wlLive {
				frames = append(frames, res.Checksums)
			}
		}
		// runs of one seed must display the same frames
		for i := 1; i < len(frames); i++ {
			for k := 0; k < len(frames[0]) && k < len(frames[i]); k++ {
				if frames[0][k] != frames[i][k] {
					fmt.Printf("FAILED CHECK: %s run %d displays a different frame %d than run 1\n", w, i+1, (k+1)*checksumEvery)
					ok = false
					break
				}
			}
		}
	}

	fmt.Printf("\n# set seed=%d seconds=%g repeats=%d traced=%v\n", seed, seconds, setRepeats, traced)
	fmt.Printf("%-18s %-30s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, w := range workloadNames {
		names := map[string]metric{}
		for _, r := range set.Runs {
			if r.Workload == w {
				for n, m := range r.Metrics {
					names[n] = m
				}
			}
		}
		for _, n := range sortedKeys(names) {
			vals, unit := set.values(w, n)
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("%-18s %-30s %14.4f %14.4f %14.4f  %s\n", w, n, q2, q1, q3, unit)
		}
	}

	if out == "" {
		name := fmt.Sprintf("set-seed%d.json", seed)
		if traced {
			name = fmt.Sprintf("set-seed%d-traced.json", seed)
		}
		out = filepath.Join(benchDir(), "out", name)
	}
	if err := writeJSON(out, set); err != nil {
		fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("# set written to %s\n", out)
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readSpec finds BENCHMARK.json from the repo root or from the benchmark's
// own directory.
func readSpec() (*spec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a parent's and a change's readings of one metric. A
// spread (quartile distance over median) wider than the bound cannot
// resolve a difference of the bound's size, so it yields "unresolved"
// unless every reading of the change beats every reading of the parent.
func judge(a, b []float64, higherIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // orient so that larger is worse
	if higherIsBetter {
		sign = -1
	}
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worseBy := sign * (bm - am) // positive when the change is worse
	limit := bound * math.Abs(am)
	spreadA, spreadB := aq3-aq1, bq3-bq1

	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter
	case spreadA > limit || spreadB > limit:
		return verdictUnresolved
	case worseBy > limit:
		return verdictWorse
	case -worseBy > spreadA:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// judgeFailures compares failed ÷ attempted operations of a parent's and a
// change's runs of one workload. The bound is +0: a larger failed share
// than the parent's is worse. Failed samples drop out of the latency and
// throughput populations, so those rows cannot stand in for this one.
func judgeFailures(aFailed, aAttempted, bFailed, bAttempted int) string {
	if aAttempted == 0 || bAttempted == 0 {
		return verdictWorse
	}
	// cross-multiplied, so the shares compare exactly
	switch a, b := aFailed*bAttempted, bFailed*aAttempted; {
	case b > a:
		return verdictWorse
	case b < a:
		return verdictBetter
	default:
		return verdictWithin
	}
}

func loadSet(path string) (*setFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sameKindOfSet refuses two sets that were not run the same way: their
// numbers would differ for that reason alone.
func sameKindOfSet(sp *spec, a, b *setFile) error {
	if a.Seconds != b.Seconds || a.Traced != b.Traced {
		return fmt.Errorf("sets were run differently: seconds %g traced %v against seconds %g traced %v",
			a.Seconds, a.Traced, b.Seconds, b.Traced)
	}
	for _, w := range sp.Workloads {
		if an, bn := a.runs(w.Name), b.runs(w.Name); an != bn || an == 0 {
			return fmt.Errorf("sets hold %d and %d runs of %s", an, bn, w.Name)
		}
	}
	return nil
}

// runCompare applies BENCHMARK.json's bounds to two sets: a is the parent,
// b the change. One row per (metric, workload) and one per workload for the
// failed operations; exit 1 if any is worse or any run of either set was
// incorrect (its numbers describe a broken run).
func runCompare(aPath, bPath string) int {
	sp, err := readSpec()
	if err != nil {
		fatalf("%v", err)
	}
	a, err := loadSet(aPath)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadSet(bPath)
	if err != nil {
		fatalf("%v", err)
	}
	if err := sameKindOfSet(sp, a, b); err != nil {
		fatalf("%v", err)
	}
	worse, incorrect := 0, 0
	fmt.Printf("%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, _ := a.values(w.Name, m.Name)
			bv, _ := b.values(w.Name, m.Name)
			verdict := judge(av, bv, m.Better == "higher", m.Bound)
			if verdict == verdictWorse {
				worse++
			}
			am, bm := 0.0, 0.0
			if len(av) > 0 {
				am = median(av)
			}
			if len(bv) > 0 {
				bm = median(bv)
			}
			delta := 0.0
			if am != 0 {
				delta = (bm - am) / am
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.Name, m.Name, am, bm, 100*delta, 100*m.Bound, verdict)
		}
		af, an, abad := a.failures(w.Name)
		bf, bn, bbad := b.failures(w.Name)
		incorrect += abad + bbad
		verdict := judgeFailures(af, an, bf, bn)
		if verdict == verdictWorse {
			worse++
		}
		fmt.Printf("%-18s %-18s %14s %14s %9s %6.0f%%  %s\n", w.Name, "failed/attempted",
			fmt.Sprintf("%d/%d", af, an), fmt.Sprintf("%d/%d", bf, bn), "", 0.0, verdict)
	}
	if incorrect > 0 {
		fmt.Printf("%d run(s) failed an operation or an output check\n", incorrect)
	}
	if worse > 0 {
		fmt.Printf("%d row(s) worse than the bound allows\n", worse)
	}
	if worse > 0 || incorrect > 0 {
		return 1
	}
	return 0
}

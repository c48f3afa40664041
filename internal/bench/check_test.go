package bench

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkedIn is the path of a checked-in report, seen from this package.
func checkedIn(name string) string { return "../../BENCH_" + name + ".json" }

// encode is a report's BENCH_*.json encoding.
func encode(t *testing.T, rep any) []byte {
	t.Helper()
	b, err := marshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// load decodes a checked-in report into its real type, strictly.
func load[T any](t *testing.T, name string) *T {
	t.Helper()
	rep := new(T)
	if err := readReport(checkedIn(name), rep, true); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCheckedInReportsReproduce regenerates every seed-deterministic
// report through the experiment table — default sizes, seed 42 — and
// requires the checked-in file back byte for byte. None may carry a
// wall_* field: a host measurement belongs in a package test or in
// benchmark/, not in a report that must reproduce.
func TestCheckedInReportsReproduce(t *testing.T) {
	deterministic := map[string]bool{"network": true, "qos": true}
	for _, e := range experiments {
		if !deterministic[e.name] {
			continue
		}
		rep, err := e.run(io.Discard, Options{Duration: 30, Seed: 42}, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want, err := os.ReadFile(checkedIn(e.name))
		if err != nil {
			t.Fatal(err)
		}
		got := encode(t, rep)
		if bytes.Contains(got, []byte(`"wall_`)) {
			t.Errorf("%s: a seed-deterministic report carries a wall_* field", e.name)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: regenerated report differs from %s", e.name, checkedIn(e.name))
		}
		delete(deterministic, e.name)
	}
	if len(deterministic) != 0 {
		t.Fatalf("not in the experiment table: %v", deterministic)
	}
}

// TestCheckedInReportsPassCheck decodes every checked-in BENCH_*.json
// into the type that wrote it — an unknown field is schema drift — and
// requires its gate to pass. The list is the directory's: a report no
// experiment writes any more fails here, and so does one without a gate
// unless the reason is stated below.
func TestCheckedInReportsPassCheck(t *testing.T) {
	files, err := filepath.Glob(checkedIn("*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in reports found: %v", err)
	}
	seen := map[string]bool{}
	for _, path := range files {
		kind := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		seen[kind] = true
		writers := 0
		for _, e := range experiments {
			if e.name == kind {
				writers++
			}
		}
		if writers != 1 {
			t.Errorf("%s has %d writers in the experiment table, want 1", path, writers)
			continue
		}
		if kind == "observability" {
			// no gate: a snapshot of one run's registry claims nothing to
			// check, but it must not drift from its type either
			load[observabilitySnapshot](t, kind)
			continue
		}
		failed, err := CheckFile(kind, path)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		for _, e := range failed {
			t.Errorf("%s: %v", kind, e)
		}
	}
	for kind := range checkKinds {
		if kind != "trace" && !seen[kind] {
			t.Errorf("kind %q has a gate but no checked-in %s", kind, checkedIn(kind))
		}
	}
}

func TestCheckFileRejects(t *testing.T) {
	if _, err := CheckFile("qso", checkedIn("qos")); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("unknown kind: err = %v, want the list of valid kinds", err)
	}
	// the right kind for the wrong file is schema drift, not an empty pass
	if _, err := CheckFile("network", checkedIn("qos")); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("qos report read as network: err = %v, want an unknown-field error", err)
	}
}

const goodTrace = `{"displayTimeUnit":"ms","traceEvents":[
	{"name":"vio","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"args":{"k":1}},
	{"name":"flow","ph":"s","ts":1,"pid":1,"tid":1,"id":7}]}`

func checkTrace(t *testing.T, doc string) []error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	failed, err := CheckFile("trace", path)
	if err != nil {
		t.Fatal(err)
	}
	return failed
}

// TestChecksCanFail takes each passing report, breaks one gated
// property per row, and requires an error naming it. A row with an
// empty want sits exactly on a threshold and must still pass: together
// the two pin each comparison and its constant.
func TestChecksCanFail(t *testing.T) {
	network := func(f func(*networkReport)) func() []error {
		return func() []error { r := load[networkReport](t, "network"); f(r); return r.Check() }
	}
	qos := func(f func(*qosReport)) func() []error {
		return func() []error { r := load[qosReport](t, "qos"); f(r); return r.Check() }
	}
	parallel := func(f func(*parallelReport)) func() []error {
		return func() []error { r := load[parallelReport](t, "parallel"); f(r); return r.Check() }
	}
	trace := func(doc string) func() []error {
		return func() []error { return checkTrace(t, doc) }
	}
	kernel := func(r *parallelReport, name string) *parallelKernelResult {
		for i := range r.Kernels {
			if r.Kernels[i].Name == name {
				return &r.Kernels[i]
			}
		}
		t.Fatalf("checked-in parallel report has no %s kernel", name)
		return nil
	}

	rows := []struct {
		name string
		errs func() []error
		want string
	}{
		// network
		{"network/no cells", network(func(r *networkReport) { r.Cells = nil }), "no sweep cells"},
		{"network/7 sessions", network(func(r *networkReport) { r.Cells[0].Sessions = r.Cells[0].Sessions[:7] }), "7 sessions, need >= 8"},
		{"network/decode error", network(func(r *networkReport) { r.Cells[1].Sessions[2].DecodeErrors = 1 }), "session 2: 1 decode errors"},
		{"network/no mtp", network(func(r *networkReport) { r.Cells[0].Sessions[0].MTP.N = 0 }), "no MTP samples"},
		{"network/queue at bound", network(func(r *networkReport) { r.Cells[0].Sessions[0].MaxInflight = r.QueueBound }), ""},
		{"network/queue over bound", network(func(r *networkReport) { r.Cells[0].Sessions[0].MaxInflight = r.QueueBound + 1 }), "in-flight queue hit 129 (bound 128)"},
		{"network/faulted queue exempt", network(func(r *networkReport) { r.Cells[len(r.Cells)-1].Sessions[0].MaxInflight = r.QueueBound + 1 }), ""},
		{"network/faulted lost pose", network(func(r *networkReport) { r.Cells[len(r.Cells)-1].Sessions[0].PosesDelivered-- }), "poses delivered after outages"},
		{"network/no loopback", network(func(r *networkReport) { r.Cells[0].Profile.Name = "lo" }), "missing the loopback or regional cell"},
		{"network/flat rtt", network(func(r *networkReport) {
			for i := range r.Cells {
				r.Cells[i].Aggregate.MeanMs = 9
			}
		}), "MTP does not grow with RTT"},

		// qos (ramp cell 3, 24 sessions, is the saturated one)
		{"qos/2 cells", qos(func(r *qosReport) { r.Ramp = r.Ramp[2:] }), "ramp has 2 cells, need >= 3"},
		{"qos/margin 1", qos(func(r *qosReport) { r.AdaptiveMarginFrac = 1 }), "adaptive_margin_frac 1.00 outside (0, 1)"},
		{"qos/margin 0", qos(func(r *qosReport) { r.AdaptiveMarginFrac = 0 }), "outside (0, 1)"},
		{"qos/empty mtp", qos(func(r *qosReport) { r.Ramp[0].Static.MTP.N = 0 }), "static variant has an empty MTP"},
		{"qos/worker leak", qos(func(r *qosReport) { r.Ramp[0].Adaptive.FinalWorkers["audio"]++ }), "9 workers allocated, want 8"},
		{"qos/violation", qos(func(r *qosReport) { r.Ramp[3].Adaptive.Violations = 1 }), "1 controller invariant violations"},
		{"qos/idle +0.5", qos(func(r *qosReport) { r.Ramp[0].Adaptive.MTP.P99Ms = r.Ramp[0].Static.MTP.P99Ms + 0.5 }), ""},
		{"qos/idle +0.6", qos(func(r *qosReport) { r.Ramp[0].Adaptive.MTP.P99Ms = r.Ramp[0].Static.MTP.P99Ms + 0.6 }), "with no pressure"},
		{"qos/at margin", qos(func(r *qosReport) { r.Ramp[3].Adaptive.MTP.P99Ms = r.Ramp[3].Static.MTP.P99Ms * r.AdaptiveMarginFrac }), ""},
		{"qos/over margin", qos(func(r *qosReport) { r.Ramp[3].Adaptive.MTP.P99Ms = r.Ramp[3].Static.MTP.P99Ms * 0.86 }), "not within 85% of static"},
		{"qos/no fewer misses", qos(func(r *qosReport) { r.Ramp[3].Adaptive.DeadlineMisses = r.Ramp[3].Static.DeadlineMisses }), "no improvement"},
		{"qos/no moves", qos(func(r *qosReport) { r.Ramp[3].Adaptive.WorkerMoves = 0 }), "never moved a worker"},
		{"qos/nothing saturated", qos(func(r *qosReport) { r.Ramp[3].Static.DeadlineMisses = 0 }), "the ramp proves nothing"},
		{"qos/nothing saved", qos(func(r *qosReport) { r.Batching.DispatchSavedMs = 0 }), "amortization did not happen"},
		{"qos/nothing batched", qos(func(r *qosReport) { r.Batching.Dispatches = r.Batching.Items }), "nothing was batched"},
		{"qos/batched no better", qos(func(r *qosReport) { r.Batching.Batched.MTP.P99Ms = r.Batching.Unbatched.MTP.P99Ms }), "not better than unbatched"},
		{"qos/batching violation", qos(func(r *qosReport) { r.Batching.Unbatched.Violations = 1 }), "batching unbatched variant reported 1"},
		{"qos/no windows", qos(func(r *qosReport) { r.Fault.Windows = nil }), "no fault windows"},
		{"qos/not degraded", qos(func(r *qosReport) { r.Fault.Degraded = false }), "never degraded pyramid_levels"},
		{"qos/degraded to full", qos(func(r *qosReport) { r.Fault.MostDegraded = r.Fault.FullValue }), "never degraded pyramid_levels"},
		{"qos/not restored", qos(func(r *qosReport) { r.Fault.Restored = false }), "restored after the spike"},
		{"qos/ended degraded", qos(func(r *qosReport) { r.Fault.FinalValue = 2 }), "ended with pyramid_levels=2"},
		{"qos/drift 1", qos(func(r *qosReport) { r.Drift.Drift = 1 }), "(drift 1) — re-run not reproducible"},
		{"qos/fingerprint drift", qos(func(r *qosReport) { r.Drift.FingerprintB = "0" }), "re-run not reproducible"},
		{"qos/p99 drift", qos(func(r *qosReport) { r.Drift.P99BitsB = "0" }), "re-run not reproducible"},
		{"qos/no fingerprint", qos(func(r *qosReport) { r.Drift.FingerprintA, r.Drift.FingerprintB = "", "" }), "no decision-log fingerprint"},

		// parallel
		{"parallel/no kernels", parallel(func(r *parallelReport) { r.Kernels = nil }), "no kernels in report"},
		{"parallel/three at 2x", parallel(func(r *parallelReport) {
			for i := range r.Kernels {
				r.Kernels[i].Speedup = 1.99
			}
			r.Kernels[0].Speedup, r.Kernels[1].Speedup, r.Kernels[2].Speedup = 2, 2, 2
		}), ""},
		{"parallel/two at 2x", parallel(func(r *parallelReport) {
			for i := range r.Kernels {
				r.Kernels[i].Speedup = 1.99
			}
			r.Kernels[0].Speedup, r.Kernels[1].Speedup = 2, 2
		}), "only 2 kernels reach 2x modeled speedup"},
		{"parallel/ssim at +10%", parallel(func(r *parallelReport) {
			k := kernel(r, "ssim")
			k.ModeledParallelMs, k.WallParallelMsMean = 1.10*k.SerialMsMean, 1.10*k.SerialMsMean
		}), ""},
		{"parallel/ssim at +11%", parallel(func(r *parallelReport) {
			k := kernel(r, "ssim")
			k.ModeledParallelMs, k.WallParallelMsMean = 1.11*k.SerialMsMean, 1.11*k.SerialMsMean
		}), "ssim: parallel"},
		{"parallel/flip wall 1.5x", parallel(func(r *parallelReport) { k := kernel(r, "flip"); k.WallParallelMsMean = 1.5 * k.SerialMsMean }), ""},
		{"parallel/flip wall 1.6x", parallel(func(r *parallelReport) { k := kernel(r, "flip"); k.WallParallelMsMean = 1.6 * k.SerialMsMean }), "flip: wall parallel"},

		// trace
		{"trace/good", trace(goodTrace), ""},
		{"trace/empty", trace(`{"traceEvents":[]}`), "no traceEvents"},
		{"trace/no name", trace(`{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":1}]}`), "event 0 missing ph or name"},
		{"trace/no pid", trace(`{"traceEvents":[{"name":"a","ph":"X","ts":1,"tid":1}]}`), "event 0 missing pid/tid"},
		{"trace/no ts", trace(`{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1}]}`), "complete event 0 has bad ts/dur"},
		{"trace/negative dur", trace(`{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-1,"pid":1,"tid":1}]}`), "bad ts/dur"},
		{"trace/flows only", trace(`{"traceEvents":[{"name":"a","ph":"s","ts":1,"pid":1,"tid":1}]}`), "no complete (ph=X) events"},
	}
	for _, row := range rows {
		errs := row.errs()
		if row.want == "" {
			for _, err := range errs {
				t.Errorf("%s: on the threshold, want a pass, got: %v", row.name, err)
			}
			continue
		}
		named := false
		for _, err := range errs {
			named = named || strings.Contains(err.Error(), row.want)
		}
		if !named {
			t.Errorf("%s: want an error containing %q, got %v", row.name, row.want, errs)
		}
	}
}

// TestWriteReportRejectsNonFinite: a measurement JSON cannot carry must
// surface as an error, not as a truncated or missing-but-unnoticed file.
func TestWriteReportRejectsNonFinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	rep := &parallelReport{Kernels: []parallelKernelResult{{Name: "ssim", WallSpeedup: math.Inf(1)}}}
	if err := writeReport(path, rep); err == nil {
		t.Fatal("a report holding +Inf was written without error")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a file was left behind: stat err = %v", err)
	}
	rep.Kernels[0].WallSpeedup = 2
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if failed, err := CheckFile("parallel", path); err != nil || len(failed) == 0 {
		t.Fatalf("written report did not decode and fail its gate: %v, %v", failed, err)
	}
}

// TestRunRejectsUnknownExperiment: a typo must fail the whole call
// before anything runs, not pass as an empty or partial success.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	for _, ids := range []string{"bogus", "scael,network", ""} {
		err := Run(io.Discard, ids, Options{Duration: 1, Seed: 42, OutDir: dir})
		if !errors.Is(err, ErrUnknownExperiment) || !strings.Contains(err.Error(), "network") {
			t.Errorf("-exp %q: err = %v, want ErrUnknownExperiment listing the valid ids", ids, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("a rejected run still wrote %v", left)
	}
	var out bytes.Buffer
	if err := Run(&out, "table1, fig8", Options{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table I") || !strings.Contains(out.String(), "Fig 8") {
		t.Errorf("-exp table1,fig8 rendered:\n%s", out.String())
	}
}

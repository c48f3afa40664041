package main

import (
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestWorkloadsEmitTheSpec runs every workload for a fraction of a second
// and checks that each run is correct and reports exactly the end-to-end
// metrics BENCHMARK.json lists, each with the listed unit.
func TestWorkloadsEmitTheSpec(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(sp.Workloads), len(workloadNames))
	}
	for _, w := range sp.Workloads {
		if !nameRE.MatchString(w.Name) || !knownWorkload(w.Name) {
			t.Errorf("workload name %q is malformed or unknown to the command", w.Name)
			continue
		}
		res := runWorkload(w.Name, 1, 0.5, false)
		if !res.Correct {
			t.Errorf("%s: incorrect run: failed=%d %v", w.Name, res.Failed, res.Checks)
		}
		if len(res.Metrics) != len(sp.EndToEnd) {
			t.Errorf("%s: %d metrics emitted, %d listed", w.Name, len(res.Metrics), len(sp.EndToEnd))
		}
		for _, m := range sp.EndToEnd {
			got, ok := res.Metrics[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("metric name %q is malformed", m.Name)
			case !ok:
				t.Errorf("%s: %s not emitted", w.Name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s has unit %q, listed as %q", w.Name, m.Name, got.Unit, m.Unit)
			case got.Value <= 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: %s = %v", w.Name, m.Name, got.Value)
			}
		}
	}
}

// TestPerLayerTableMatchesTheSpec checks that a traced result carries
// exactly BENCHMARK.json's per-layer metrics, once each, with their units;
// that a layer the workload does not exercise reads notMeasured; and that
// a layer it should have measured and did not fails the run.
func TestPerLayerTableMatchesTheSpec(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Workload: wlLive, Metrics: map[string]metric{"not.listed": {Value: 1, Unit: "us"}}, Detail: map[string]metric{}}
	for _, m := range perLayer {
		if m.on&onLive != 0 && m.name != "render.frame_ms" {
			res.set(m.name, 1, m.unit)
		}
	}
	completePerLayer(res)
	if len(res.Metrics) != len(sp.PerLayer) || len(perLayer) != len(sp.PerLayer) {
		t.Fatalf("%d per-layer metrics emitted from a table of %d, %d listed", len(res.Metrics), len(perLayer), len(sp.PerLayer))
	}
	for _, m := range sp.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer %q: emitted=%v unit %q, listed unit %q", m.Name, ok, got.Unit, m.Unit)
		}
	}
	if v := res.Metrics["bridge.uplink_us"].Value; v != notMeasured {
		t.Errorf("bridge.uplink_us on %s = %v, want %v", wlLive, v, notMeasured)
	}
	if len(res.Checks) != 1 || !strings.Contains(res.Checks[0], "render.frame_ms") {
		t.Errorf("failed checks %v, want exactly the unmeasured render.frame_ms", res.Checks)
	}
}

// TestPacedTraceIsContiguous traces a short paced window and checks that
// samples resolve into chains whose spans meet end to start and add up to
// the traced round trip.
func TestPacedTraceIsContiguous(t *testing.T) {
	tr := newTracer(1)
	o, err := setUpOffload(1, 2, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	run := runOffload(o.st, o.sessions, o.loop, true, 300*time.Millisecond, tr)
	if err := o.tearDown(false); err != nil {
		t.Fatal(err)
	}
	if len(run.checks) > 0 || run.winAcked == 0 {
		t.Fatalf("run: acked=%d checks=%v", run.winAcked, run.checks)
	}
	chains, unresolved := tr.offloadChains()
	if len(chains) < run.winAcked {
		t.Fatalf("%d chains resolved (%d unresolved) for %d acknowledged samples", len(chains), unresolved, run.winAcked)
	}
	for _, c := range chains {
		if len(c.spans) != len(offloadPath) || !c.contiguous() {
			t.Fatalf("chain %s: %d spans, contiguous=%v", c.id, len(c.spans), c.contiguous())
		}
		sum := int64(0)
		for _, s := range c.spans {
			sum += s.End - s.Start
		}
		if sum != c.total() {
			t.Fatalf("chain %s: spans sum to %d ns, round trip is %d ns", c.id, sum, c.total())
		}
	}
	// no upper limit: beside the other packages' tests the gateway runs
	// late and coalesces; the full run's README numbers show 1.03
	if up := tr.framesPerWrite(roleGwReplicaLeg); up < 1 {
		t.Errorf("gateway uplink carries %.3f frames per write, want at least 1", up)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 7, 3, 5, 11, 13, 2, 8, 20})
	if q1 != 2.75 || q2 != 7.5 || q3 != 11.5 {
		t.Errorf("quartiles = %v %v %v, want 2.75 7.5 11.5", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("three values: q1=%v q3=%v, want 1 and 3", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100.5, 99.5}, false, verdictWithin},
		{"slower latency", []float64{120, 121, 119}, false, verdictWorse},
		{"faster latency", []float64{80, 81, 79}, false, verdictBetter},
		{"lower throughput", []float64{80, 81, 79}, true, verdictWorse},
		{"noisy", []float64{90, 130, 100}, false, verdictUnresolved},
	} {
		if got := judge(parent, tc.change, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeFailures(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		aFail, aAtt, bFail, bAtt int
		want                     string
	}{
		{"none", 0, 1000, 0, 900, verdictWithin},
		{"change fails", 0, 1000, 1, 1000, verdictWorse},
		{"change fails a larger share", 2, 1000, 2, 900, verdictWorse},
		{"change fails a smaller share", 2, 1000, 1, 1000, verdictBetter},
		{"nothing attempted", 0, 1000, 0, 0, verdictWorse},
	} {
		if got := judgeFailures(tc.aFail, tc.aAtt, tc.bFail, tc.bAtt); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareRejectsFailuresAndMismatchedSets drives -compare's own entry:
// a change whose latency reads better but which fails operations must not
// pass, and neither may two sets run with different windows.
func TestCompareRejectsFailuresAndMismatchedSets(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	set := func(seconds, latency float64, failed int) *setFile {
		s := &setFile{Seed: 1, Seconds: seconds}
		for _, w := range sp.Workloads {
			for i := 0; i < setRepeats; i++ {
				r := &result{Workload: w.Name, Attempted: 1000, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
				for _, m := range sp.EndToEnd {
					r.set(m.Name, latency+float64(i), m.Unit)
				}
				s.Runs = append(s.Runs, r)
			}
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *setFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", set(12, 100, 0))
	if code := runCompare(parent, write("same.json", set(12, 100, 0))); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	if code := runCompare(parent, write("failing.json", set(12, 100, 3))); code == 0 {
		t.Errorf("a change that fails operations: exit 0, want non-zero")
	}
	if err := sameKindOfSet(sp, set(12, 100, 0), set(20, 100, 0)); err == nil {
		t.Errorf("sets with 12 s and 20 s windows were accepted as comparable")
	}
	short := set(12, 100, 0)
	short.Runs = short.Runs[1:]
	if err := sameKindOfSet(sp, set(12, 100, 0), short); err == nil {
		t.Errorf("sets with different run counts were accepted as comparable")
	}
}

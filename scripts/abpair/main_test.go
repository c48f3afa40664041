package main

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{
		{10, 10, 1.0 / 1024},  // ≈ 0.00098
		{9, 10, 11.0 / 1024},  // ≈ 0.0107: the claim's threshold
		{8, 10, 56.0 / 1024},  // ≈ 0.055: not enough
		{5, 10, 638.0 / 1024}, // a coin
		{0, 10, 1},
		{0, 0, 1},
		{9, 9, 1.0 / 512},
	} {
		if got := signTestP(c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
	if signTestP(9, 10) > claimAlpha || signTestP(8, 10) <= claimAlpha {
		t.Errorf("claimAlpha %v must pass 9 of 10 pairs and fail 8 of 10", claimAlpha)
	}
}

// line is one run's JSON line with one metric.
func line(t *testing.T, s string) result {
	t.Helper()
	r, err := parseRun([]byte("table line\n  key 1.0 ms\n" + s + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVoidPairs(t *testing.T) {
	good := func(v string) result {
		return line(t, `{"correct":true,"attempted":9,"failed":0,"metrics":{"throughput_per_s":{"value":`+v+`,"unit":"1/s"}}}`)
	}
	failed := line(t, `{"correct":true,"attempted":9,"failed":1,"metrics":{"throughput_per_s":{"value":999,"unit":"1/s"}}}`)
	wrong := line(t, `{"correct":false,"attempted":9,"failed":0,"metrics":{"throughput_per_s":{"value":999,"unit":"1/s"}}}`)
	if _, err := parseRun([]byte("panic: boom\n")); err == nil {
		t.Fatal("a run that printed no JSON line parsed")
	}
	ps := []pair{
		{good("100"), good("110")},
		{good("100"), good("90")},
		{failed, good("200")},   // A failed an operation
		{good("100"), wrong},    // B displayed a wrong frame
		{good("100"), result{}}, // B printed no line
		{good("100"), good("100")},
	}
	for i, want := range []bool{false, false, true, true, true, false} {
		if ps[i].void() != want {
			t.Errorf("pair %d: void = %v, want %v", i, !want, want)
		}
	}
	v := judge(ps, "throughput_per_s", true)
	if v.valid != 3 || v.wins != 1 || v.ties != 1 || v.medianRatio != 1 {
		t.Errorf("judge = %+v, want 3 valid pairs, 1 win, 1 tie, median ratio 1", v)
	}
	if want := signTestP(1, 2); v.p != want {
		t.Errorf("p = %v, want %v (ties dropped)", v.p, want)
	}
	if v := judge(ps, "throughput_per_s", false); v.wins != 1 {
		t.Errorf("lower-is-better wins = %d, want 1", v.wins)
	}
	// a void run says why
	why, err := parseRun([]byte("attempted=9 failed=1 correct=false\nFAILED CHECK: lifecycle 7: no pose covering t=0.03 within 5s\n" +
		`{"correct":false,"attempted":9,"failed":1,"metrics":{}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d := why.describe(nil, nil); !strings.Contains(d, "failed check: lifecycle 7: no pose covering") {
		t.Errorf("describe = %q, want the failed check", d)
	}
}

func TestCPUShare(t *testing.T) {
	before, err := parseCPU("cpu  100 0 50 800 10 0 0 40 0 0")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseCPU("cpu  200 0 60 880 20 0 0 80 0 0")
	if err != nil {
		t.Fatal(err)
	}
	// 240 ticks: 40 stolen, 90 idle (80 idle + 10 iowait)
	steal, idle := after.share(before)
	if math.Abs(steal-40.0/240) > 1e-12 || math.Abs(idle-90.0/240) > 1e-12 {
		t.Errorf("share = %v steal, %v idle", steal, idle)
	}
	if _, err := parseCPU("cpu0 1 2 3"); err == nil {
		t.Error("a per-CPU line parsed as the aggregate")
	}
}

// The CLAIM line carries the spread: the extreme paired ratios and A's
// p25–p75 over A's median, on the valid pairs only.
func TestClaimSpread(t *testing.T) {
	run := func(v string) result {
		return line(t, `{"correct":true,"attempted":9,"failed":0,"metrics":{"throughput_per_s":{"value":`+v+`,"unit":"1/s"}}}`)
	}
	ps := []pair{
		{run("100"), run("110")},   // 1.10
		{run("96"), run("120")},    // 1.25
		{run("104"), run("104")},   // 1.00
		{run("98"), run("107.8")},  // 1.10
		{run("102"), run("112.2")}, // 1.10
		{run("50"), result{}},      // void: A's 50 must not widen the spread
	}
	v := judge(ps, "throughput_per_s", true)
	if v.valid != 5 || v.minRatio != 1 || v.maxRatio != 1.25 || math.Abs(v.medianRatio-1.1) > 1e-12 {
		t.Fatalf("judge = %+v, want 5 valid pairs, ratios 1 .. 1.25, median 1.1", v)
	}
	// A sorted: 96 98 100 102 104; exclusive quartiles 97, 100, 103
	if want := 6.0 / 100; math.Abs(v.aIQR-want) > 1e-12 {
		t.Fatalf("A's IQR share = %v, want %v", v.aIQR, want)
	}
	var b strings.Builder
	report(&b, ps, []string{"throughput_per_s"}, nil, map[string]bool{"throughput_per_s": true})
	want := "CLAIM throughput_per_s: median B/A 1.1000 (min 1.0000, max 1.2500), A's p25–p75 6.00% of its median, B better in 4 of 5 valid pairs (1 ties)"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("report:\n%s\nwant a line starting %q", b.String(), want)
	}
}

// The quartiles are the benchmark's (Python's statistics.quantiles,
// method "exclusive").
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// offloadOut is what an untraced offload run prints, its detail rows
// included; rtt is its pose RTT p99 row's value.
func offloadOut(rtt string) string {
	return `# offload_paced seed=1 seconds=3 traced=false  host: nproc=2 GOMAXPROCS=2 go1.24.0 amd64 linux
allocs_per_op                            4.0774 count
setup_s                                  0.0078 s
throughput_per_s                       999.5921 1/s
  latency.p99_us                       ` + rtt + ` us
  proc.cpu_us_per_op                   217.6105 us
  session.pose_displaced_ratio           0.0000 ratio
attempted=2999 failed=0 correct=true
{"correct":true,"attempted":2999,"failed":0,"metrics":{"allocs_per_op":{"value":4.077359119706569,"unit":"count"},"setup_s":{"value":0.007791067,"unit":"s"},"throughput_per_s":{"value":999.5920634458008,"unit":"1/s"}}}
`
}

// The rows above the JSON line are metrics too; the JSON line's own
// metrics keep their full precision; the header and the attempted line
// are not rows.
func TestParseRunReadsRows(t *testing.T) {
	r, err := parseRun([]byte(offloadOut("327.1171")))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"allocs_per_op":                4.077359119706569,
		"setup_s":                      0.007791067,
		"throughput_per_s":             999.5920634458008,
		"latency.p99_us":               327.1171,
		"proc.cpu_us_per_op":           217.6105,
		"session.pose_displaced_ratio": 0,
	}
	if len(r.values) != len(want) {
		t.Fatalf("values = %v, want %v", r.values, want)
	}
	for k, v := range want {
		if got, ok := r.values[k]; !ok || got != v {
			t.Errorf("%s = %v (present: %v), want %v", k, got, ok, v)
		}
	}
}

// A run that prints only its JSON line has exactly the line's metrics.
func TestParseRunWithoutRows(t *testing.T) {
	r, err := parseRun([]byte(`{"correct":true,"attempted":9,"failed":0,"metrics":{"throughput_per_s":{"value":12.5,"unit":"1/s"}}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.values) != 1 || r.values["throughput_per_s"] != 12.5 {
		t.Fatalf("values = %v, want throughput_per_s alone", r.values)
	}
}

// A row of -1 was not measured: it is absent from the run, never a value,
// so a pair with one side unmeasured is not judged on that metric.
func TestParseRunSentinelIsNotAValue(t *testing.T) {
	a, err := parseRun([]byte(offloadOut("300")))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseRun([]byte(offloadOut("-1.0000")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.values["latency.p99_us"]; ok {
		t.Fatalf("the -1 row parsed as a value: %v", b.values)
	}
	ps := []pair{{a, b}, {a, a}}
	if v := judge(ps, "latency.p99_us", false); v.valid != 1 || v.medianB != 300 {
		t.Fatalf("judge = %+v, want the one pair both runs measured", v)
	}
	// a pair whose A reads 0 counts for wins, not for the paired ratio
	zero := []pair{{a, a}, {a, a}}
	zero[0][0].values = map[string]float64{"session.pose_displaced_ratio": 0}
	zero[0][1].values = map[string]float64{"session.pose_displaced_ratio": 0.001}
	zero[1][0].values = map[string]float64{"session.pose_displaced_ratio": 0.002}
	zero[1][1].values = map[string]float64{"session.pose_displaced_ratio": 0.001}
	if v := judge(zero, "session.pose_displaced_ratio", false); v.valid != 2 || v.wins != 1 || v.medianRatio != 0.5 || v.maxRatio != 0.5 {
		t.Fatalf("judge = %+v, want 2 valid pairs, 1 win, the one finite ratio 0.5", v)
	}
	// a metric no valid pair measured cannot pass a guard
	if (guard{metric: "latency.p99_us", bound: 1}).holds(judge([]pair{{a, b}}, "latency.p99_us", false), false) {
		t.Fatal("a guard held on a metric B never measured")
	}
}

// A guard fails when B's median is worse than A's by more than its
// bound, in the metric's own direction, and holds otherwise.
func TestGuard(t *testing.T) {
	run := func(rtt string) result {
		r, err := parseRun([]byte(offloadOut(rtt)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	better := map[string]bool{"latency.p99_us": false, "throughput_per_s": true}
	for _, c := range []struct {
		b     string
		holds bool
	}{
		{"300", true},   // unchanged
		{"200", true},   // better
		{"329.9", true}, // 9.97 % worse, inside 10 %
		{"330.1", false},
	} {
		ps := []pair{{run("300"), run(c.b)}, {run("300"), run(c.b)}, {run("300"), run(c.b)}}
		var out strings.Builder
		code := report(&out, ps, nil, []guard{{metric: "latency.p99_us", bound: 0.10}}, better)
		if (code == 0) != c.holds || !strings.Contains(out.String(), "GUARD latency.p99_us: median A 300, B "+c.b) {
			t.Errorf("B at %s: exit %d, report:\n%s", c.b, code, out.String())
		}
	}
	// higher is better: a throughput 30 % lower fails a 25 % guard
	lo := run("300")
	lo.values["throughput_per_s"] *= 0.7
	var out strings.Builder
	if code := report(&out, []pair{{run("300"), lo}}, nil, []guard{{metric: "throughput_per_s", bound: 0.25}}, better); code != 1 {
		t.Errorf("throughput 0.7x passed a 25%% guard:\n%s", out.String())
	}
}

// -guard takes metric:bound pairs of metrics BENCHMARK.json lists, per
// layer included; anything else is a usage error.
func TestParseGuards(t *testing.T) {
	better, err := directions("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	gs, err := parseGuards("latency.p99_us:0.10,throughput_per_s:0.25", better)
	if err != nil || len(gs) != 2 || gs[0] != (guard{"latency.p99_us", 0.10}) || gs[1] != (guard{"throughput_per_s", 0.25}) {
		t.Fatalf("parseGuards = %v, %v", gs, err)
	}
	if !better["throughput_per_s"] || better["proc.cpu_us_per_op"] {
		t.Fatal("directions: throughput is higher-better, CPU per op lower-better")
	}
	for _, bad := range []string{"pose_rtt_p99_us:0.1", "latency.p99_us", "latency.p99_us:-1", "latency.p99_us:x"} {
		if _, err := parseGuards(bad, better); err == nil {
			t.Errorf("parseGuards(%q) accepted", bad)
		}
	}
}

// -claim takes any printed row: one BENCHMARK.json does not list is
// judged in the direction its unit gives (1/s higher, anything else
// lower), and a name no run printed does not hold.
func TestClaimOnAnyPrintedRow(t *testing.T) {
	run := func(rtt, rate string) result {
		r, err := parseRun([]byte("  pose_rtt_p99_us  " + rtt + " us\n  poses_delivered_per_s  " + rate + " 1/s\n" +
			`{"correct":true,"attempted":9,"failed":0,"metrics":{}}` + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var ps []pair
	for i := 0; i < 10; i++ {
		ps = append(ps, pair{run("300", "990"), run("280", "995")})
	}
	var out strings.Builder
	if code := report(&out, ps, []string{"pose_rtt_p99_us", "poses_delivered_per_s"}, nil, map[string]bool{}); code != 0 {
		t.Fatalf("lower RTT and a higher rate in 10 of 10 pairs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := report(&out, ps, []string{"pose_rtt_p50_us"}, nil, map[string]bool{}); code != 1 || !strings.Contains(out.String(), "0 of 0 valid pairs") {
		t.Fatalf("a claim on a row no run printed: exit %d\n%s", code, out.String())
	}
}

// A run's context switches become two rows per attempted operation; a
// run that printed no line or attempted nothing gets neither.
func TestAddSwitches(t *testing.T) {
	r := line(t, `{"correct":true,"attempted":4,"failed":0,"metrics":{}}`)
	r.addSwitches(10, 2)
	if r.values["proc.vcsw_per_op"] != 2.5 || r.values["proc.ivcsw_per_op"] != 0.5 || r.units["proc.vcsw_per_op"] != "count" {
		t.Fatalf("values = %v, units = %v", r.values, r.units)
	}
	if d := r.describe(nil, nil); !strings.Contains(d, "proc.vcsw_per_op=2.5") || !strings.Contains(d, "proc.ivcsw_per_op=0.5") {
		t.Fatalf("run line %q does not print both rows", d)
	}
	idle := line(t, `{"correct":true,"attempted":0,"failed":0,"metrics":{}}`)
	idle.addSwitches(10, 2)
	var none result
	none.addSwitches(10, 2)
	for _, r := range []result{idle, none} {
		if _, ok := r.values["proc.vcsw_per_op"]; ok {
			t.Fatalf("a run with nothing attempted has a switches row: %v", r.values)
		}
	}
	better, err := directions("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if gs, err := parseGuards("proc.vcsw_per_op:0.10,proc.ivcsw_per_op:0.2", better); err != nil || len(gs) != 2 || better["proc.vcsw_per_op"] {
		t.Fatalf("parseGuards = %v, %v; both rows must be guardable and lower-better", gs, err)
	}
}

// runOnce reads the exited child's rusage into the two rows.
func TestRunOnceCountsContextSwitches(t *testing.T) {
	out := `{"correct":true,"attempted":3,"failed":0,"metrics":{}}`
	r, err := runOnce(context.Background(), "/bin/sh", t.TempDir(), []string{"-c", "sleep 0.01; echo '" + out + "'"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range procRows {
		if v, ok := r.values[k]; !ok || v < 0 {
			t.Errorf("%s = %v (present: %v)", k, v, ok)
		}
	}
	// sleeping blocks the shell at least once
	if r.values["proc.vcsw_per_op"] <= 0 {
		t.Errorf("proc.vcsw_per_op = %v, want > 0", r.values["proc.vcsw_per_op"])
	}
}

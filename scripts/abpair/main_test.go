package main

import (
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
	r, err := parseLast([]byte("table line\n  key 1.0 ms\n" + s + "\n"))
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
	if _, err := parseLast([]byte("panic: boom\n")); err == nil {
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
	why := line(t, `{"correct":false,"attempted":9,"failed":1,"failed_checks":["lifecycle 7: no pose covering t=0.03 within 5s"],"metrics":{}}`)
	if d := why.describe(nil); !strings.Contains(d, "failed check: lifecycle 7: no pose covering") {
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
	report(&b, ps, []string{"throughput_per_s"}, map[string]bool{"throughput_per_s": true})
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

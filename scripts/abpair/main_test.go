package main

import (
	"math"
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

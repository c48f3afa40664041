package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("illixr_test_events_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("illixr_test_events_total") != c {
		t.Fatal("counter not memoized by name")
	}
	g := r.Gauge("illixr_test_depth")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var sc *SpanCollector
	if ref := sc.Emit("x", 0, 0, 1); ref.Valid() {
		t.Fatal("nil collector must return invalid refs")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// uniform 1..1000: p50 ≈ 500, p99 ≈ 990; log buckets guarantee ≤ ~12%
	// relative error
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %g, want 500.5 exactly", got)
	}
	if h.min() != 1 || h.max() != 1000 {
		t.Fatalf("min/max = %g/%g", h.min(), h.max())
	}
	checks := []struct{ p, want float64 }{{0.50, 500}, {0.90, 900}, {0.99, 990}}
	for _, c := range checks {
		got := h.Quantile(c.p)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.13 {
			t.Errorf("q%.0f = %g, want %g ± 13%%", c.p*100, got, c.want)
		}
	}
	if h.Quantile(1) != 1000 && h.Quantile(1) < 875 {
		t.Errorf("q100 = %g too far from max", h.Quantile(1))
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.mean() != 0 || h.min() != 0 || h.max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(0) // zero lands in bucket 0, not a panic
	h.Observe(math.NaN())
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1 (NaN skipped)", h.Count())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("q50 of {0} = %g, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w*1000 + i + 1))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.min() != 1 || h.max() != 8000 {
		t.Fatalf("min/max = %g/%g", h.min(), h.max())
	}
}

func TestMetricName(t *testing.T) {
	if got := MetricName("Audio-Enc", "blocks.total"); got != "illixr_audio_enc_blocks_total" {
		t.Fatalf("MetricName = %q", got)
	}
}

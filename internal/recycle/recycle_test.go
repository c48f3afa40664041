package recycle

import (
	"runtime/debug"
	"testing"

	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

func TestGetReturnsZeroedSlice(t *testing.T) {
	p := newSlicePool[float64]("test_zero")
	s := p.Get(100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	for i := range s {
		s[i] = float64(i) + 1
	}
	p.Put(s)
	s2 := p.Get(64)
	if len(s2) != 64 {
		t.Fatalf("len = %d, want 64", len(s2))
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
}

func TestBucketCapacities(t *testing.T) {
	p := newSlicePool[byte]("test_bucket")
	// A put slice must only be handed back to requests it can cover.
	big := p.Get(1000) // bucket 10, cap 1024
	p.Put(big)
	s := p.Get(1024)
	if cap(s) < 1024 {
		t.Fatalf("cap = %d, want >= 1024", cap(s))
	}
	// Non-power-of-two capacity lands in the floor bucket.
	odd := make([]byte, 700) // putBucket(700) = 9, serves requests <= 512
	p.Put(odd)
	got := p.Get(512)
	if cap(got) < 512 {
		t.Fatalf("cap = %d, want >= 512", cap(got))
	}
}

func TestGetZeroAndNegative(t *testing.T) {
	p := newSlicePool[int]("test_empty")
	if s := p.Get(0); s != nil {
		t.Fatalf("Get(0) = %v, want nil", s)
	}
	if s := p.Get(-3); s != nil {
		t.Fatalf("Get(-3) = %v, want nil", s)
	}
	p.Put(nil) // must not panic
}

func TestStatsAndInstrument(t *testing.T) {
	if testutil.RaceEnabled {
		// race-mode sync.Pool randomly drops Puts by design, so hit/miss
		// accounting is nondeterministic under the detector
		t.Skip("sync.Pool drops Puts under -race")
	}
	// a GC between Put and Get clears the sync.Pool and turns the
	// expected hit into a miss — hold it off for the window
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	p := newSlicePool[float32]("test_stats")
	reg := telemetry.NewRegistry()
	Instrument(reg)
	s := p.Get(32) // miss
	p.Put(s)
	_ = p.Get(32) // hit
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
	if got := reg.Counter(telemetry.MetricName("recycle", "test_stats_hit_total")).Value(); got != 1 {
		t.Fatalf("hit counter = %d, want 1", got)
	}
}

func TestSteadyStateGetPutAllocsZero(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := newSlicePool[float64]("test_allocs")
	// Warm up: one buffer and one husk in flight.
	p.Put(p.Get(4096))
	allocs := testing.AllocsPerRun(100, func() {
		s := p.Get(4096)
		p.Put(s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f allocs/op, want 0", allocs)
	}
}

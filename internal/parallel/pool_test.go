package parallel

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"illixr/internal/telemetry"
)

func TestTiles(t *testing.T) {
	cases := []struct{ n, tile, want int }{
		{0, 4, 0}, {-3, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2},
		{100, 7, 15}, {7, 0, 1}, {7, -1, 1},
	}
	for _, c := range cases {
		if got := Tiles(c.n, c.tile); got != c.want {
			t.Errorf("Tiles(%d,%d) = %d, want %d", c.n, c.tile, got, c.want)
		}
	}
}

func TestForTilesCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := New(workers)
		n := 1000
		hits := make([]int32, n)
		var mu sync.Mutex
		p.ForTiles("cover", n, 13, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, h)
			}
		}
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	sum := 0
	p.ForTiles("nil", 10, 3, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("nil pool sum = %d", sum)
	}
	if got := p.SumTiles("nil", 0, 4, func(lo, hi int) float64 { return 1 }); got != 0 {
		t.Fatalf("empty SumTiles = %v", got)
	}
}

// TestDeterminismSumTiles requires the floating-point fold to be bitwise
// identical across worker counts and on the nil pool: the canonical
// determinism contract, for both reductions.
func TestDeterminismSumTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		// wide dynamic range makes the sum order-sensitive
		xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	sum := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	}
	// the paired form sums the same range forwards and negated
	sum2 := func(lo, hi int) (float64, float64) { s := sum(lo, hi); return s, -s }
	bits := func(p *Pool) [3]uint64 {
		a, b := p.SumTiles2("sum2", n, 4096, sum2)
		return [3]uint64{math.Float64bits(p.SumTiles("sum", n, 4096, sum)),
			math.Float64bits(a), math.Float64bits(b)}
	}
	want := bits(nil)
	if want[1] != want[0] || want[2] != want[0]^(1<<63) {
		t.Fatalf("SumTiles2 components %x disagree with SumTiles", want)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		if got := bits(New(workers)); got != want {
			t.Errorf("workers=%d: sums %x != nil-pool %x", workers, got, want)
		}
	}
}

// TestDeterminismForTilesDisjointWrites checks the disjoint-output form of
// the contract on a per-element transform.
func TestDeterminismForTilesDisjointWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 50000
	in := make([]float64, n)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	run := func(workers int) []float64 {
		p := New(workers)
		out := make([]float64, n)
		p.ForTiles("transform", n, 1024, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = math.Sin(in[i]) * math.Exp(-in[i]*in[i]/2)
			}
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: out[%d] differs", workers, i)
			}
		}
	}
}

// TestPoolRaceStress hammers one shared pool from many goroutines with
// concurrent ForTiles/SumTiles calls against shared accumulators; run
// under -race this validates the pool's internal synchronization.
func TestPoolRaceStress(t *testing.T) {
	p := New(4)
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	p.CollectTiles(true)
	const goroutines = 8
	const rounds = 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	var total atomic64
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// shared accumulator via ordered reduce
				s := p.SumTiles("stress", 2000, 64, func(lo, hi int) float64 {
					var acc float64
					for i := lo; i < hi; i++ {
						acc += float64(i)
					}
					return acc
				})
				total.add(int64(s))
				// disjoint writes into a shared slice
				out := make([]int64, 512)
				p.ForTiles("stress2", len(out), 32, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = int64(i * g)
					}
				})
				_ = p.DrainTileCalls()
			}
		}(g)
	}
	wg.Wait()
	want := int64(goroutines*rounds) * (2000 * 1999 / 2)
	if total.load() != want {
		t.Fatalf("stress total = %d, want %d", total.load(), want)
	}
	snap := reg.Snapshot()
	if snap.Counters[telemetry.MetricName("parallel", "calls_total")] == 0 {
		t.Error("instrumented pool recorded no calls")
	}
	if snap.Counters[telemetry.MetricName("parallel", "tiles_total")] == 0 {
		t.Error("instrumented pool recorded no tiles")
	}
}

// atomic64 avoids importing sync/atomic twice in examples above.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestInstrumentedKernelHistogram(t *testing.T) {
	p := New(2)
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	p.ForTiles("warp", 100, 10, func(lo, hi int) {})
	p.ForTiles("warp", 100, 10, func(lo, hi int) {})
	h := reg.Histogram(telemetry.MetricName("parallel", "warp_ms"))
	if h.Count() != 2 {
		t.Errorf("kernel histogram count = %d, want 2", h.Count())
	}
}

// closeKernels runs the three dispatch shapes over an order-sensitive
// input and returns every output bit.
func closeKernels(p *Pool, xs []float64) (out []float64, sum, re, im float64) {
	out = make([]float64, len(xs))
	p.ForTiles("for", len(xs), 37, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = xs[i] * 3
		}
	})
	sum = p.SumTiles("sum", len(xs), 37, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	})
	re, im = p.SumTiles2("sum2", len(xs), 37, func(lo, hi int) (float64, float64) {
		a, b := 0.0, 0.0
		for i := lo; i < hi; i++ {
			a += xs[i]
			b -= xs[i] * xs[i]
		}
		return a, b
	})
	return out, sum, re, im
}

// waitGoroutines polls until the goroutine count is back at or below
// want (an exited goroutine leaves the count a moment after its last
// statement).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolCloseReleasesHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(6)
	p.ForTiles("spawn", 64, 1, func(lo, hi int) {})
	if got := runtime.NumGoroutine(); got < base+5 {
		t.Fatalf("dispatch at 6 workers left %d goroutines over a baseline of %d: helpers not parked", got, base)
	}
	p.Close()
	waitGoroutines(t, base)
	p.Close() // idempotent
	p.ForTiles("closed", 64, 1, func(lo, hi int) {})
	waitGoroutines(t, base)

	// a pool that never dispatched, the zero value and nil have nothing to give back
	New(4).Close()
	new(Pool).Close()
	(*Pool)(nil).Close()
}

// TestClosedPoolRunsSerialSameBits: a closed pool is the nil pool — same
// tiles, same fold order — so its outputs match an open pool's bit for bit.
func TestClosedPoolRunsSerialSameBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	for _, workers := range []int{1, 2, 4, 7} {
		open := New(workers)
		wantOut, wantSum, wantRe, wantIm := closeKernels(open, xs)
		open.Close()

		closed := New(workers)
		closed.ForTiles("warm", 64, 1, func(lo, hi int) {}) // helpers exist before Close
		closed.Close()
		out, sum, re, im := closeKernels(closed, xs)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
				t.Fatalf("workers=%d: ForTiles out[%d] differs after Close", workers, i)
			}
		}
		if math.Float64bits(sum) != math.Float64bits(wantSum) ||
			math.Float64bits(re) != math.Float64bits(wantRe) ||
			math.Float64bits(im) != math.Float64bits(wantIm) {
			t.Fatalf("workers=%d: closed sums (%x %x %x) != open (%x %x %x)", workers,
				math.Float64bits(sum), math.Float64bits(re), math.Float64bits(im),
				math.Float64bits(wantSum), math.Float64bits(wantRe), math.Float64bits(wantIm))
		}
	}
}

// TestPoolCloseRacesDispatch: Close against kernels in flight from
// several goroutines — every call completes with the right answer,
// whichever side of the Close it lands on, and the helpers are gone.
func TestPoolCloseRacesDispatch(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(4)
	var wg sync.WaitGroup
	startC := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-startC
			for i := 0; i < 200; i++ {
				got := p.SumTiles("race", 1000, 10, func(lo, hi int) float64 { return float64(hi - lo) })
				if got != 1000 {
					t.Errorf("SumTiles = %v, want 1000", got)
					return
				}
			}
		}()
	}
	close(startC)
	p.SumTiles("race", 1000, 10, func(lo, hi int) float64 { return float64(hi - lo) })
	p.Close()
	wg.Wait()
	waitGoroutines(t, base)
}

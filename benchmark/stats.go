package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"illixr/internal/recycle"
)

// epoch anchors every timestamp the benchmark takes: nanos() is monotonic
// nanoseconds since process start, small enough for an int64 and cheap to
// subtract.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// dist summarises one latency sample set. Values stay in the unit the
// caller recorded them in.
type dist struct {
	N             int
	P50, P90, P99 float64
}

// summarize sorts xs in place and reads the percentiles off it.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	return dist{N: len(xs), P50: pct(xs, 0.50), P90: pct(xs, 0.90), P99: pct(xs, 0.99)}
}

// pct is the linear-interpolated percentile of an ascending slice.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pct(s, 0.5)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver applies to the
// ten-run spread; fewer than two values give the single value thrice.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// procSnap is the process-wide resource reading taken at both edges of a
// timed window.
type procSnap struct {
	cpuNs    int64
	mallocs  uint64
	gcCycles uint32
	gcPause  uint64
	maxRSSKB int64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnap{
		cpuNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
		maxRSSKB: ru.Maxrss,
	}
}

// procDelta is what a window cost the process.
type procDelta struct {
	CPUUs    float64
	Mallocs  float64
	GCCycles float64
	GCPauseM float64
	PeakRSSM float64
}

func (a procSnap) until(b procSnap) procDelta {
	return procDelta{
		CPUUs:    float64(b.cpuNs-a.cpuNs) / 1e3,
		Mallocs:  float64(b.mallocs - a.mallocs),
		GCCycles: float64(b.gcCycles - a.gcCycles),
		GCPauseM: float64(b.gcPause-a.gcPause) / 1e6,
		PeakRSSM: float64(b.maxRSSKB) / 1024,
	}
}

// recycleSnap totals the shared free-lists' traffic.
type recycleSnap struct{ hits, gets int64 }

func recycleSnapshot() recycleSnap {
	var s recycleSnap
	for _, st := range []recycle.Stats{
		recycle.F32.Stats(), recycle.F64.Stats(), recycle.C128.Stats(), recycle.Bytes.Stats(),
	} {
		s.hits += st.Hits
		s.gets += st.Hits + st.Misses
	}
	return s
}

// ratioUntil is hits ÷ gets between two snapshots (0 when nothing was
// requested).
func (a recycleSnap) ratioUntil(b recycleSnap) float64 {
	if b.gets == a.gets {
		return 0
	}
	return float64(b.hits-a.hits) / float64(b.gets-a.gets)
}

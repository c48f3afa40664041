// Package recycle provides typed, size-bucketed free-lists for the hot
// per-frame buffer shapes of the runtime (images, FFT spectra, hologram
// fields, audio blocks, wire payloads). After warm-up, Get/Put cycles on a
// steady-state frame loop perform zero heap allocations: slices are pooled
// per power-of-two capacity bucket, and the *wrapper boxes that carry them
// through sync.Pool are themselves recycled so neither direction of the
// round trip boxes a slice header into an interface.
//
// Determinism contract (DESIGN.md §10): Get always returns a fully zeroed
// slice, exactly like make([]T, n), so a pooled buffer can never leak one
// frame's data into the next and a kernel's output is bitwise identical
// whether its buffers are fresh or recycled. Ownership is explicit: the
// function documented as owning a buffer is the only one that may Put it,
// and a buffer must not be used after Put.
package recycle

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"illixr/internal/telemetry"
)

// maxBuckets covers capacities up to 2^40 elements — far beyond any frame
// buffer; larger requests fall through to plain allocation.
const maxBuckets = 41

// wrapper boxes a slice for sync.Pool storage: a *wrapper converts to
// interface{} without allocating, unlike a raw slice header.
type wrapper[T any] struct{ s []T }

// Stats is a point-in-time snapshot of one pool's traffic.
type Stats struct {
	Hits   int64 // Gets served from the free-list
	Misses int64 // Gets that had to allocate
	Puts   int64 // buffers returned
}

// SlicePool is a size-bucketed free-list for []T. The zero value is not
// usable; construct with newSlicePool.
type SlicePool[T any] struct {
	name    string
	buckets [maxBuckets]sync.Pool // bucket b holds *wrapper[T] with cap >= 1<<b
	husks   sync.Pool             // empty *wrapper[T] awaiting reuse

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	// telemetry (nil until Instrument; the instruments are nil-safe)
	hitC  *telemetry.Counter
	missC *telemetry.Counter
	putC  *telemetry.Counter
}

// pools tracks every SlicePool for Instrument.
var (
	poolsMu sync.Mutex
	pools   []interface{ instrument(*telemetry.Registry) }
)

// newSlicePool creates a named free-list for []T. The name becomes the
// telemetry suffix: illixr_recycle_<name>_{hit,miss,put}_total.
func newSlicePool[T any](name string) *SlicePool[T] {
	p := &SlicePool[T]{name: name}
	poolsMu.Lock()
	pools = append(pools, p)
	poolsMu.Unlock()
	return p
}

// Instrument wires every recycle pool's hit/miss/put counters into the
// registry so they appear on the debughttp /metrics endpoint.
func Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	for _, p := range pools {
		p.instrument(reg)
	}
}

func (p *SlicePool[T]) instrument(reg *telemetry.Registry) {
	p.hitC = reg.Counter(telemetry.MetricName("recycle", p.name+"_hit_total"))
	p.missC = reg.Counter(telemetry.MetricName("recycle", p.name+"_miss_total"))
	p.putC = reg.Counter(telemetry.MetricName("recycle", p.name+"_put_total"))
}

// Stats returns the pool's cumulative hit/miss/put counts.
func (p *SlicePool[T]) Stats() Stats {
	return Stats{Hits: p.hits.Load(), Misses: p.misses.Load(), Puts: p.puts.Load()}
}

// getBucket is the smallest bucket whose capacity covers n.
func getBucket(n int) int { return bits.Len(uint(n - 1)) }

// putBucket is the largest bucket a capacity can serve: every resident of
// bucket b has cap >= 1<<b.
func putBucket(c int) int { return bits.Len(uint(c)) - 1 }

// Get returns a zeroed slice of length n, recycled when possible. The
// result is indistinguishable from make([]T, n); capacity may exceed n.
func (p *SlicePool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	b := getBucket(n)
	if b >= maxBuckets {
		p.misses.Add(1)
		p.missC.Inc()
		return make([]T, n)
	}
	w, _ := p.buckets[b].Get().(*wrapper[T])
	if w == nil {
		p.misses.Add(1)
		p.missC.Inc()
		return make([]T, n, 1<<b)
	}
	s := w.s[:n]
	w.s = nil
	p.husks.Put(w)
	var zero T
	for i := range s {
		s[i] = zero
	}
	p.hits.Add(1)
	p.hitC.Inc()
	return s
}

// Put returns a slice to the free-list. The caller must not touch s (or
// any alias of it) afterwards. nil and zero-capacity slices are ignored.
func (p *SlicePool[T]) Put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	b := putBucket(c)
	if b >= maxBuckets {
		return
	}
	w, _ := p.husks.Get().(*wrapper[T])
	if w == nil {
		w = new(wrapper[T])
	}
	w.s = s[:0]
	p.buckets[b].Put(w)
	p.puts.Add(1)
	p.putC.Inc()
}

// Shared pools for the element types that dominate the per-frame paths.
var (
	// F32 backs imgproc.Gray/RGB pixels and KLT template scratch.
	F32 = newSlicePool[float32]("f32")
	// F64 backs hologram phase planes, audio blocks and FFT real I/O.
	F64 = newSlicePool[float64]("f64")
	// C128 backs FFT spectra and hologram wavefront fields.
	C128 = newSlicePool[complex128]("c128")
	// Bytes backs netxr wire/frame encode payloads.
	Bytes = newSlicePool[byte]("bytes")
)

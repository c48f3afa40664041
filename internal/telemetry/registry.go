package telemetry

// Registry is the process-wide metrics surface of the observability layer:
// named counters, gauges, and log-bucketed histograms, created on first
// use and safe for concurrent update from every plugin and scheduler hook.
// Updates are lock-free (a single atomic op for counters/gauges, a handful
// for histograms) so instrumented hot paths stay cheap; the registry lock
// is only taken when a metric is first created or the registry is dumped.
//
// All instrument methods are nil-receiver safe: code holding a nil
// *Registry, *Counter, *Gauge or *Histogram can call them unconditionally
// and pays only a nil check — the "no collector installed" configuration
// needs no branches at the call sites.
//
// Metric names follow the scheme illixr_<component>_<name>; use MetricName
// to build them so component labels are sanitized consistently.

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricName builds the canonical metric name illixr_<component>_<name>,
// lowercasing and replacing any character outside [a-z0-9_] with '_'.
func MetricName(component, name string) string {
	return "illixr_" + sanitizeMetric(component) + "_" + sanitizeMetric(name)
}

func sanitizeMetric(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored — counters are monotonic).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depth, health state).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: four log-spaced sub-buckets per power of two
// ("log-bucketed"), covering binary exponents histMinExp..histMaxExp.
// Relative quantile error is bounded by one sub-bucket (≤ ~12 %), which is
// plenty for p50/p90/p99 latency monitoring; count/sum/min/max are exact.
const (
	histSubBuckets = 4
	histMinExp     = -31 // values below 2^-31 (~0.5e-9) clamp to bucket 0
	histMaxExp     = 32  // values above 2^32 clamp to the last bucket
	histBuckets    = (histMaxExp - histMinExp) * histSubBuckets
)

// Histogram is a lock-free log-bucketed distribution with exact count,
// sum, min and max. Zero and negative observations land in bucket 0.
type Histogram struct {
	counts  [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits; valid only when count > 0
	maxBits atomic.Uint64
	once    sync.Once
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	m, e := math.Frexp(v) // v = m * 2^e, m in [0.5, 1)
	sub := int((m*2 - 1) * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	idx := (e-1-histMinExp)*histSubBuckets + sub
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketMid returns a representative value for a bucket (geometric
// midpoint of its bounds).
func bucketMid(idx int) float64 {
	e := idx/histSubBuckets + histMinExp
	sub := idx % histSubBuckets
	lo := math.Ldexp(1+float64(sub)/histSubBuckets, e)
	hi := math.Ldexp(1+float64(sub+1)/histSubBuckets, e)
	return (lo + hi) / 2
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	h.once.Do(func() {
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	})
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// sum returns the exact sum of observations.
func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// mean returns the exact mean (0 when empty).
func (h *Histogram) mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum() / float64(n)
}

// Quantile estimates the p-th quantile (p in [0,1]) from the log buckets;
// 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			if i == 0 {
				// bucket 0 also holds zero/negative observations; its low
				// bound is effectively 0
				return math.Min(bucketMid(0), h.max())
			}
			mid := bucketMid(i)
			// clamp to the exact observed range
			return math.Max(h.min(), math.Min(mid, h.max()))
		}
	}
	return h.max()
}

// min returns the smallest observation (0 when empty).
func (h *Histogram) min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// max returns the largest observation (0 when empty).
func (h *Histogram) max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// HistogramSnapshot is the exported view of a histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Snapshot captures the histogram's summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(), Mean: h.mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		Min: h.min(), Max: h.max(),
	}
}

// Registry holds all named instruments.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time copy of every instrument.
type RegistrySnapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

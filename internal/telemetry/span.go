package telemetry

// Span-based causal tracing: every event published through the runtime
// can carry a SpanRef, and every processing stage emits a Span naming its
// parent spans — so a display frame can be walked back through
// reprojection → integrator → VIO → the camera frame and IMU sample that
// produced it, attributing each slice of motion-to-photon latency to the
// stage that spent it. Spans are collected centrally in a SpanCollector
// (bounded, with an overflow counter) and exported as Chrome trace_event
// JSON loadable in chrome://tracing or Perfetto.

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// TraceID identifies one causal lineage: the chain of spans descending
// from a single root sensor event. Zero means "no trace".
type TraceID uint64

// SpanID identifies one span. Zero means "no span".
type SpanID uint64

// SpanRef is the lineage tag carried on published events: the trace the
// event belongs to and the span that produced it. The zero SpanRef means
// tracing is off.
type SpanRef struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the ref points at a real span.
func (r SpanRef) Valid() bool { return r.Span != 0 }

// Span is one completed processing stage.
type Span struct {
	ID      SpanID   `json:"id"`
	Trace   TraceID  `json:"trace"`
	Name    string   `json:"name"`  // component/stage, e.g. "vio"
	Start   float64  `json:"start"` // session time, seconds
	End     float64  `json:"end"`
	Parents []SpanID `json:"parents,omitempty"`
}

// defaultSpanCap bounds a collector when no explicit cap is given
// (~262k spans ≈ a few minutes of a fully traced run).
const defaultSpanCap = 1 << 18

// SpanCollector accumulates spans up to a cap; spans emitted beyond the
// cap are counted in Dropped instead of growing memory without bound.
// All methods are nil-receiver safe so instrumented code can hold a nil
// collector when tracing is off.
//
// Retained spans are stored in ascending id order — Emit draws the id
// under the same lock that appends the span — so Get and Lineage
// binary-search the slice and no per-span index exists (DESIGN.md §7).
// Once the cap is reached a dropped span takes no lock: it draws its id
// and counts itself with two atomic adds.
type SpanCollector struct {
	full atomic.Bool // the cap is reached: every later span drops

	mu    sync.Mutex
	cap   int
	spans []Span
	// slab is the block retained spans' Parents are carved from, so Emit
	// does not heap-allocate a slice per span. The collector owns every
	// block for its own lifetime and only ever appends to the current one;
	// a span's Parents is a full-capacity (three-index) window of it, so an
	// append by a caller reallocates instead of reaching the next span's.
	slab []SpanID

	// every span writes these two, so they sit a cache line away from
	// full, which every span reads
	_       [64]byte
	nextID  atomic.Uint64 // the last id handed out
	dropped atomic.Uint64
}

// spanBlock is the span slice the first retained span allocates (~4.6 KB),
// and the IDs of the first parent slab block (512 B): an offload
// lifecycle's collectors hold a few dozen spans each, which a slice
// doubling from one element reached in seven allocations.
const spanBlock = 64

// slabMax caps a parent slab block (32 KB); blocks double up to it.
const slabMax = 4096

// NewSpanCollector creates a collector; cap <= 0 selects defaultSpanCap.
func NewSpanCollector(cap int) *SpanCollector {
	if cap <= 0 {
		cap = defaultSpanCap
	}
	return &SpanCollector{cap: cap}
}

// SetIDBase raises the collector's span/trace id allocation floor. The
// two ends of a network offload (internal/netxr) each run their own
// collector while sharing trace lineage over the wire; giving the server
// a high, per-session-disjoint base keeps ids unique when client and
// server traces are merged. Never lowers the floor, even against
// concurrent Emits (a CAS max); safe on nil.
func (c *SpanCollector) SetIDBase(base uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.nextID.Load()
		if cur >= base || c.nextID.CompareAndSwap(cur, base) {
			return
		}
	}
}

// Emit records one completed span and returns its ref. A zero trace
// starts a new lineage (the span becomes a root). Zero parent IDs are
// skipped, so callers can pass possibly-unset refs unconditionally. On a
// nil collector Emit is a no-op returning the zero ref.
func (c *SpanCollector) Emit(name string, trace TraceID, start, end float64, parents ...SpanID) SpanRef {
	if c == nil {
		return SpanRef{}
	}
	if c.full.Load() {
		return c.drop(trace)
	}
	c.mu.Lock()
	// cap first: a dropped span must cost nothing but its id and the count
	// (an Emit that raced the one filling the store lands here)
	if len(c.spans) >= c.cap {
		c.full.Store(true)
		c.mu.Unlock()
		return c.drop(trace)
	}
	// drawn under mu, so retained spans append in id order; ids a lock-free
	// drop draws in between are simply never retained
	id := SpanID(c.nextID.Add(1))
	if trace == 0 {
		trace = TraceID(id)
	}
	ref := SpanRef{Trace: trace, Span: id}
	n := 0
	for _, p := range parents {
		if p != 0 {
			n++
		}
	}
	var ps []SpanID
	if n > 0 {
		if cap(c.slab)-len(c.slab) < n {
			block := min(max(2*cap(c.slab), spanBlock), slabMax)
			c.slab = make([]SpanID, 0, max(block, n))
		}
		at := len(c.slab)
		for _, p := range parents {
			if p != 0 {
				c.slab = append(c.slab, p)
			}
		}
		ps = c.slab[at:len(c.slab):len(c.slab)]
	}
	if c.spans == nil {
		c.spans = make([]Span, 0, min(spanBlock, c.cap))
	}
	c.spans = append(c.spans, Span{ID: id, Trace: trace, Name: name, Start: start, End: end, Parents: ps})
	if len(c.spans) >= c.cap {
		c.full.Store(true) // the span that fills the store sets it: DropIfFull is exact
	}
	c.mu.Unlock()
	return ref
}

// DropIfFull reports whether the collector has reached its cap, counting
// one dropped span when it has. A caller that emits a span only to pass
// its ref on — a relay rewriting a frame's trace — skips the Emit, and the
// work around it, for a span that would not be kept, and Dropped still
// counts every span not retained. False on a nil collector.
func (c *SpanCollector) DropIfFull() bool {
	if c == nil || !c.full.Load() {
		return false
	}
	c.dropped.Add(1)
	return true
}

// drop is Emit past the cap: a unique id, the drop count, no lock.
func (c *SpanCollector) drop(trace TraceID) SpanRef {
	id := SpanID(c.nextID.Add(1))
	if trace == 0 {
		trace = TraceID(id)
	}
	c.dropped.Add(1)
	return SpanRef{Trace: trace, Span: id}
}

// Len returns the number of retained spans.
func (c *SpanCollector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Dropped returns how many spans were discarded at the cap.
func (c *SpanCollector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped.Load()
}

// Get returns the span with the given ID.
func (c *SpanCollector) Get(id SpanID) (Span, bool) {
	if c == nil {
		return Span{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.find(id)
	if !ok {
		return Span{}, false
	}
	return c.spans[i], true
}

// find binary-searches the id-ordered spans. Caller holds mu.
func (c *SpanCollector) find(id SpanID) (int, bool) {
	return slices.BinarySearchFunc(c.spans, id, func(s Span, id SpanID) int { return cmp.Compare(s.ID, id) })
}

// Spans returns a copy of every retained span in emission (= id) order.
func (c *SpanCollector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Find returns the retained spans with the given name, in emission order.
func (c *SpanCollector) Find(name string) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Span
	for _, s := range c.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Lineage walks the ancestry of a span: breadth-first from the span
// through its parents back to the roots, each ancestor reported once.
// The first element is the span itself. This is the causal walk-back
// that attributes a display frame to the sensor inputs that produced it.
func (c *SpanCollector) Lineage(id SpanID) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Span
	seen := map[SpanID]bool{}
	queue := []SpanID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		i, ok := c.find(cur)
		if !ok {
			continue
		}
		sp := c.spans[i]
		out = append(out, sp)
		queue = append(queue, sp.Parents...)
	}
	return out
}

// chrome trace_event JSON types (the subset chrome://tracing/Perfetto
// needs: complete "X" events for spans, flow "s"/"f" events for causal
// edges).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// SpanCount and SpansDropped surface the collector's retention state
	// alongside the export: a nonzero SpansDropped means the trace is
	// truncated at the cap, not complete. Extra top-level keys are
	// ignored by chrome://tracing/Perfetto (and by `benchcheck trace`).
	SpanCount    int    `json:"spanCount"`
	SpansDropped uint64 `json:"spansDropped"`
}

// WriteChromeTrace exports the retained spans as Chrome trace_event JSON:
// one complete event per span (one "thread" row per stage name) plus one
// flow event pair per parent→child causal edge, so the lineage renders as
// arrows across the rows in chrome://tracing / Perfetto.
func (c *SpanCollector) WriteChromeTrace(w io.Writer) error {
	spans := c.Spans()
	// stable tid per stage name
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	tid := map[string]int{}
	for i, n := range ordered {
		tid[n] = i + 1
	}

	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{},
		SpanCount: len(spans), SpansDropped: c.Dropped()}
	for _, n := range ordered {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 1, Tid: tid[n],
			Args: map[string]any{"name": n},
		})
	}
	byID := make(map[SpanID]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var flowID uint64
	for _, s := range spans {
		dur := (s.End - s.Start) * 1e6
		if dur < 0 {
			dur = 0
		}
		d := dur
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: "illixr", Ph: "X",
			Ts: s.Start * 1e6, Dur: &d, Pid: 1, Tid: tid[s.Name],
			Args: map[string]any{"span": uint64(s.ID), "trace": uint64(s.Trace)},
		})
		for _, p := range s.Parents {
			ps, ok := byID[p]
			if !ok {
				continue
			}
			flowID++
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "lineage", Cat: "illixr", Ph: "s",
				Ts: ps.End * 1e6, Pid: 1, Tid: tid[ps.Name], ID: flowID,
			})
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "lineage", Cat: "illixr", Ph: "f", BP: "e",
				Ts: s.Start * 1e6, Pid: 1, Tid: tid[s.Name], ID: flowID,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// Service names under which the observability facilities register in the
// live runtime's phonebook, so plugins can discover them without a
// compile-time dependency on the wiring code.
const (
	// RegistryService resolves to a *Registry.
	RegistryService = "telemetry.registry"
	// TracerService resolves to a *SpanCollector.
	TracerService = "telemetry.tracer"
)

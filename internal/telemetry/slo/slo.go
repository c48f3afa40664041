// Package slo computes rolling-window service-level objectives and
// error-budget burn rates for the fleet (DESIGN.md §12). An Objective
// declares what "good" means (an MTP p-sample under its bound, a frame
// delivered, a session kept) and how much badness the error budget
// allows over a window; the Engine counts good/bad observations in a
// bucketed ring and reports the burn rate — the multiple of the budget
// currently being consumed. Burn rate 1.0 spends the budget exactly at
// the sustainable pace; 10× means the window's budget is gone in a tenth
// of the window.
//
// Time is an explicit float64 (seconds), as everywhere in the fleet:
// the bench drives the engine on the virtual clock and gets
// deterministic burn rates; the gateway drives it from the scrape loop
// on the wall clock. Gauges and counters are exported per objective as
// illixr_slo_<name>_* when a registry is attached.
package slo

import (
	"math"
	"sort"
	"sync"

	"illixr/internal/telemetry"
)

// Objective declares one SLO.
type Objective struct {
	// Name keys the objective ("mtp_p99", "frame_drop", "session_loss").
	Name string `json:"name"`
	// Bound is the threshold a value observation must stay under (<=) to
	// count as good.
	Bound float64 `json:"bound"`
	// Budget is the allowed bad fraction over the window, e.g. 0.01
	// allows 1% bad (a "99%" objective). Must be > 0 to be meaningful;
	// 0 selects 0.01.
	Budget float64 `json:"budget"`
	// WindowSec is the rolling window length in seconds (0 = 60).
	WindowSec float64 `json:"window_sec"`
}

// slo window resolution: the ring quantizes the window into this many
// buckets, so expiry granularity is WindowSec/sloBuckets.
const sloBuckets = 16

type bucket struct {
	start float64 // bucket epoch start
	good  uint64
	bad   uint64
}

type objState struct {
	obj     Objective
	buckets [sloBuckets]bucket
	lastNow float64

	events     *telemetry.Counter
	violations *telemetry.Counter
	burn       *telemetry.Gauge
	remaining  *telemetry.Gauge
}

// Engine tracks a set of objectives. All methods are safe for concurrent
// use and nil-receiver safe (a nil engine is inert, like a nil Registry).
type Engine struct {
	mu   sync.Mutex
	objs map[string]*objState
	reg  *telemetry.Registry
}

// NewEngine creates an engine; reg (optional) receives the illixr_slo_*
// instruments.
func NewEngine(reg *telemetry.Registry) *Engine {
	return &Engine{objs: map[string]*objState{}, reg: reg}
}

// AddObjective registers (or replaces) an objective.
func (e *Engine) AddObjective(o Objective) {
	if e == nil || o.Name == "" {
		return
	}
	if o.Budget <= 0 {
		o.Budget = 0.01
	}
	if o.WindowSec <= 0 {
		o.WindowSec = 60
	}
	st := &objState{
		obj:        o,
		events:     e.reg.Counter(telemetry.MetricName("slo", o.Name+"_events_total")),
		violations: e.reg.Counter(telemetry.MetricName("slo", o.Name+"_violations_total")),
		burn:       e.reg.Gauge(telemetry.MetricName("slo", o.Name+"_burn_rate")),
		remaining:  e.reg.Gauge(telemetry.MetricName("slo", o.Name+"_budget_remaining")),
	}
	e.mu.Lock()
	e.objs[o.Name] = st
	e.mu.Unlock()
}

// bucketFor rotates the ring to now and returns the active bucket.
func (st *objState) bucketFor(now float64) *bucket {
	if now > st.lastNow {
		st.lastNow = now
	}
	width := st.obj.WindowSec / sloBuckets
	epoch := math.Floor(now / width)
	idx := int(math.Mod(math.Mod(epoch, sloBuckets)+sloBuckets, sloBuckets))
	b := &st.buckets[idx]
	start := epoch * width
	if b.start != start {
		*b = bucket{start: start}
	}
	return b
}

// windowCounts sums the live buckets at now. Caller holds e.mu.
func (st *objState) windowCounts(now float64) (good, bad uint64) {
	width := st.obj.WindowSec / sloBuckets
	for i := range st.buckets {
		b := &st.buckets[i]
		if b.good == 0 && b.bad == 0 {
			continue
		}
		// a bucket is live while any part of it is inside the window
		if b.start+width > now-st.obj.WindowSec && b.start <= now {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// Observe records a value observation at now: good when value <= Bound.
func (e *Engine) Observe(name string, now, value float64) {
	e.observe(name, now, value <= e.bound(name))
}

func (e *Engine) bound(name string) float64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.objs[name]; ok {
		return st.obj.Bound
	}
	return 0
}

func (e *Engine) observe(name string, now float64, good bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	st, ok := e.objs[name]
	if !ok {
		e.mu.Unlock()
		return
	}
	b := st.bucketFor(now)
	if good {
		b.good++
	} else {
		b.bad++
	}
	st.events.Inc()
	if !good {
		st.violations.Inc()
	}
	burn, remaining := st.ratesLocked(now)
	e.mu.Unlock()
	st.burn.Set(burn)
	st.remaining.Set(remaining)
}

// ratesLocked computes (burn rate, budget remaining) at now.
func (st *objState) ratesLocked(now float64) (burn, remaining float64) {
	good, bad := st.windowCounts(now)
	total := good + bad
	if total == 0 {
		return 0, 1
	}
	badFrac := float64(bad) / float64(total)
	burn = badFrac / st.obj.Budget
	remaining = 1 - badFrac/st.obj.Budget
	if remaining < 0 {
		remaining = 0
	}
	return burn, remaining
}

// Status is one objective's exported state.
type Status struct {
	Objective
	Good            uint64  `json:"good"`
	Bad             uint64  `json:"bad"`
	BadFraction     float64 `json:"bad_fraction"`
	BurnRate        float64 `json:"burn_rate"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Snapshot reports every objective at its last observed time, sorted by
// name — the /slo payload. Using the last observation time (not a wall
// clock) keeps snapshots deterministic under virtual-time drivers.
func (e *Engine) Snapshot() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.objs))
	for _, st := range e.objs {
		good, bad := st.windowCounts(st.lastNow)
		s := Status{Objective: st.obj, Good: good, Bad: bad}
		if total := good + bad; total > 0 {
			s.BadFraction = float64(bad) / float64(total)
		}
		s.BurnRate, s.BudgetRemaining = st.ratesLocked(st.lastNow)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

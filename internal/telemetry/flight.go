package telemetry

// FlightRecorder is the fleet's black box: a bounded ring of structured
// lifecycle events (admissions, refusals, crashes, resumes, Down-marks)
// kept in memory and dumpable at /events for post-incident
// reconstruction. It deliberately records *events*, not samples — the
// metrics registry answers "how much", the flight recorder answers "what
// happened, in what order". When the ring fills, the oldest events are
// overwritten and counted, so a long-running gateway keeps the most
// recent history without growing memory.
//
// Time is an explicit float64 (seconds) like everywhere else in the
// fleet: RecordAt takes the caller's clock (virtual under the bench),
// Record falls back to the recorder's own clock (wall by default).

import (
	"sync"
	"time"
)

// Fleet event kinds recorded by the coordinator, gateway, and scraper.
// Free-form kinds are allowed; these constants keep the common ones
// greppable.
const (
	EventAdmit      = "admit"       // fresh session placed on a replica
	EventResume     = "resume"      // session resumed onto a replica
	EventRefuse     = "refuse"      // admission refused (push-back)
	EventEnd        = "end"         // session retired terminally
	EventReplicaUp  = "replica_up"  // replica transitioned to Up
	EventDraining   = "draining"    // replica transitioned to Draining
	EventDown       = "down"        // replica marked Down
	EventDialFail   = "dial_fail"   // gateway failed to dial a replica
	EventScrapeFail = "scrape_fail" // metrics scrape of a replica failed
)

// FleetEvent is one recorded occurrence. Seq increases monotonically
// across the recorder's lifetime (including overwritten events), so gaps
// in a dump reveal how much history the ring has shed.
type FleetEvent struct {
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"` // seconds, caller's clock
	Kind   string  `json:"kind"`
	Node   string  `json:"node,omitempty"`   // e.g. "replica-2", "gateway"
	Detail string  `json:"detail,omitempty"` // free-form context
}

// DefaultFlightCap bounds a recorder when no explicit cap is given.
const DefaultFlightCap = 4096

// FlightRecorder is a fixed-capacity event ring. All methods are
// nil-receiver safe so fleet code can hold a nil recorder when event
// recording is off.
type FlightRecorder struct {
	mu          sync.Mutex
	buf         []FleetEvent
	head        int // next write position
	n           int // occupied slots
	seq         uint64
	overwritten uint64
	now         func() float64
}

// NewFlightRecorder creates a recorder; cap <= 0 selects DefaultFlightCap.
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultFlightCap
	}
	start := time.Now()
	return &FlightRecorder{
		buf: make([]FleetEvent, cap),
		now: func() float64 { return time.Since(start).Seconds() },
	}
}

// Record appends an event stamped with the recorder's clock.
func (r *FlightRecorder) Record(kind, node, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordLocked(r.now(), kind, node, detail)
	r.mu.Unlock()
}

// RecordAt appends an event at an explicit time (the caller's clock).
func (r *FlightRecorder) RecordAt(t float64, kind, node, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordLocked(t, kind, node, detail)
	r.mu.Unlock()
}

func (r *FlightRecorder) recordLocked(t float64, kind, node, detail string) {
	r.seq++
	r.buf[r.head] = FleetEvent{Seq: r.seq, T: t, Kind: kind, Node: node, Detail: detail}
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.overwritten++
	}
}

// Events returns the retained events oldest-first.
func (r *FlightRecorder) Events() []FleetEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FleetEvent, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Recorded returns the total number of events ever recorded.
func (r *FlightRecorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Overwritten returns how many events the ring has shed.
func (r *FlightRecorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overwritten
}

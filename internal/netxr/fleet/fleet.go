// Package fleet coordinates a replicated set of netxr session servers
// behind one admission-control point (DESIGN.md §11). The Coordinator
// owns the fleet-wide view: which replicas are up, how loaded each one
// is, and — critically — the resume registry that lets a session survive
// the replica it was placed on. Placement is two-phase: Pick chooses a
// replica read-only at dial time, AdmitOn commits (and revalidates) the
// placement during the session handshake, so the inherent race between
// choosing and landing is handled honestly instead of assumed away.
//
// Admission control is push-back, not failure: a full fleet or a resume
// burst refuses with a *session.AdmissionError carrying a Retry-After
// hint, which the transport turns into a retryable Bye — the client
// backs off and redials rather than erroring out.
//
// Time enters as an explicit float64 (seconds); the caller chooses wall
// or virtual time, so the package's virtual-clock tests (the resume
// storm, the refusal ratio, scraper-fed placement) drive the same
// coordinator code the gateway runs.
package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/config"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// status is a replica's lifecycle state.
type status int

// Replica states: Up takes placements and resumes; Draining finishes
// what it has but takes nothing new (graceful restart); Down is crashed
// or unreachable — its sessions are displaced and resume elsewhere.
const (
	Up status = iota
	draining
	down
)

func (s status) String() string {
	switch s {
	case Up:
		return "up"
	case draining:
		return "draining"
	case down:
		return "down"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// LoadProbe reports a replica's live load for placement scoring: its
// session count and aggregate reliable-queue depth (the backpressure
// signal). nil probes fall back to the coordinator's own placement
// counts, which track sessions but not queue depth.
type LoadProbe func() (sessions int, queueDepth float64)

// record is one session's fleet-side state: everything needed to resume
// it on a different replica than the one it was placed on.
type record struct {
	// Token is the resume token the client presents on reconnect.
	Token uint64
	// Hello is the original handshake (rates, seed, app).
	Hello wire.Hello
	// Replica currently hosting the session.
	Replica int
	// Epoch counts placements: 1 on first admission, +1 per resume. The
	// client uses it to discard stale poses from a previous placement.
	Epoch uint64
	// LastAckSeq is the highest uplink frame seq the fleet acknowledged;
	// on resume the client learns how much of its uplink survived.
	LastAckSeq uint64
}

// Config tunes the coordinator. The zero value is usable.
type Config struct {
	// ReplicaCapacity caps sessions per replica (0 = config default).
	ReplicaCapacity int
	// RetryAfter is the base reconnect hint on refusals (0 = 250ms).
	RetryAfter time.Duration
	// ResumeBurst bounds resumes admitted per ResumeWindow — a dead
	// replica's whole population redialing at once is spread out instead
	// of thundering onto the survivors (0 = 16).
	ResumeBurst int
	// ResumeWindowSec is the sliding burst window in seconds (0 = 0.25).
	ResumeWindowSec float64
	// TokenSeed namespaces resume tokens (deterministic issuance).
	TokenSeed int64
	// Metrics receives illixr_fleet_* instruments; nil = uninstrumented.
	Metrics *telemetry.Registry
	// Events receives the fleet flight-recorder stream (admissions,
	// refusals, resumes, status transitions); nil = no recording.
	Events *telemetry.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.ReplicaCapacity == 0 {
		c.ReplicaCapacity = config.DefaultNet().MaxSessions
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.ResumeBurst == 0 {
		c.ResumeBurst = 16
	}
	if c.ResumeWindowSec == 0 {
		c.ResumeWindowSec = 0.25
	}
	return c
}

// queueWeight scales a replica's queue depth against its session count
// in the placement score: a deep queue repels new placements harder than
// a warm body.
const queueWeight = 4

// errUnknownToken refuses a resume Hello whose token was never issued
// (or was ended): terminal, not retryable — retrying cannot help.
var errUnknownToken = errors.New("fleet: unknown resume token")

// errNoReplica means Pick found no Up replica with headroom.
var errNoReplica = errors.New("fleet: no replica available")

type replica struct {
	status status
	probe  LoadProbe
	count  int    // sessions placed here by this coordinator
	node   string // flight-event name, built once (replicaNode)
}

type fleetMetrics struct {
	placed     *telemetry.Counter
	resumed    *telemetry.Counter
	refused    *telemetry.Counter
	up         *telemetry.Gauge
	contention *telemetry.Counter
}

// Decision kinds and refusal reason codes — the vocabulary of the
// decision fingerprint.
const (
	decAdmit uint8 = iota + 1
	decResume
	decRefuse
	decEnd
)

const (
	reasonReplicaGone uint8 = iota + 1
	reasonReplicaFull
	reasonUnknownToken
	reasonResumeBurst
)

// Coordinator is the fleet brain. All methods are safe for concurrent
// use; time is always an explicit argument so the same instance runs
// under wall or virtual clocks.
//
// One mutex guards everything (DESIGN.md §15.2): the replica table, the
// resume registry and burst window, token issuance and the decision
// fingerprint. Every operation is a map access and a few words of
// arithmetic under it; the success paths emit their metrics and flight
// events after the unlock.
type Coordinator struct {
	cfg Config
	m   fleetMetrics

	mu        sync.Mutex
	replicas  map[int]*replica
	ids       []int              // replica ids ascending: Pick's scan order
	records   map[uint64]*record // resume registry, by token
	window    []float64          // admit times of recent resumes (sliding window)
	tokState  uint64             // splitmix64 state for token issuance
	decisions uint64             // committed admission decisions
	fp        uint64             // running fold of every decision so far
	downHooks []func(id int)     // run after a replica is marked Down

	contention atomic.Uint64 // contended acquisitions of mu
}

// NewCoordinator builds a coordinator with no replicas.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:      cfg,
		replicas: map[int]*replica{},
		records:  map[uint64]*record{},
		tokState: uint64(cfg.TokenSeed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		fp:       0x9e3779b97f4a7c15,
		m: fleetMetrics{
			placed:     cfg.Metrics.Counter(telemetry.MetricName("fleet", "placed_total")),
			resumed:    cfg.Metrics.Counter(telemetry.MetricName("fleet", "resumed_total")),
			refused:    cfg.Metrics.Counter(telemetry.MetricName("fleet", "refused_total")),
			up:         cfg.Metrics.Gauge(telemetry.MetricName("fleet", "replicas_up")),
			contention: cfg.Metrics.Counter(telemetry.MetricName("fleet", "lock_contention_total")),
		},
	}
}

// splitmix64 — the repo-wide deterministic generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix64(*s)
}

// mix64 is splitmix64's finalizer alone (for hash folding).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lock takes mu, counting the acquisitions that had to wait — the
// measurement a many-core host would use to argue for splitting the
// lock (illixr_fleet_lock_contention_total).
func (c *Coordinator) lock() {
	if c.mu.TryLock() {
		return
	}
	c.contention.Add(1)
	c.m.contention.Inc()
	c.mu.Lock()
}

// Contention returns the cumulative count of contended lock
// acquisitions.
func (c *Coordinator) Contention() uint64 { return c.contention.Load() }

// decide commits one admission-control outcome: it takes the next
// sequence number and folds the decision, field by field, into the
// running fingerprint. Nothing is retained per decision. Caller holds mu.
func (c *Coordinator) decide(kind, reason uint8, replicaID int, token, epoch uint64) {
	c.decisions++
	h := c.fp
	for _, v := range [...]uint64{c.decisions, uint64(kind), uint64(reason),
		uint64(uint32(replicaID)), token, epoch} {
		h = mix64(h ^ v)
	}
	c.fp = h
}

// AddReplica registers replica id as Up. probe may be nil (placement
// then scores by the coordinator's own counts alone).
func (c *Coordinator) AddReplica(id int, probe LoadProbe) {
	c.lock()
	defer c.mu.Unlock()
	if _, known := c.replicas[id]; !known {
		i, _ := slices.BinarySearch(c.ids, id)
		c.ids = slices.Insert(c.ids, i, id)
	}
	c.replicas[id] = &replica{status: Up, probe: probe, node: replicaNode(id)}
	c.gaugeUpLocked()
}

// setStatus transitions a replica's lifecycle state.
func (c *Coordinator) setStatus(id int, st status) {
	c.lock()
	changed, node := false, ""
	if r, ok := c.replicas[id]; ok && r.status != st {
		r.status = st
		changed, node = true, r.node
	}
	c.gaugeUpLocked()
	var hooks []func(int)
	if changed && st == down {
		hooks = c.downHooks
	}
	c.mu.Unlock()
	for _, f := range hooks {
		f(id)
	}
	if changed {
		kind := telemetry.EventReplicaUp
		switch st {
		case draining:
			kind = telemetry.EventDraining
		case down:
			kind = telemetry.EventDown
		}
		c.cfg.Events.Record(kind, node, "")
	}
}

// onDown registers f to run, outside the lock, each time a replica is
// marked Down: a gateway closes the legs it parked there.
func (c *Coordinator) onDown(f func(id int)) {
	c.lock()
	c.downHooks = append(c.downHooks, f)
	c.mu.Unlock()
}

// replicaNode names a replica in flight events.
func replicaNode(id int) string { return fmt.Sprintf("replica-%d", id) }

// nodeLocked is replicaNode without the formatting for a registered
// replica. Caller holds mu.
func (c *Coordinator) nodeLocked(id int) string {
	if r, ok := c.replicas[id]; ok {
		return r.node
	}
	return replicaNode(id)
}

// StatusOf returns a replica's state (Down for unknown ids).
func (c *Coordinator) StatusOf(id int) status {
	c.lock()
	defer c.mu.Unlock()
	if r, ok := c.replicas[id]; ok {
		return r.status
	}
	return down
}

func (c *Coordinator) gaugeUpLocked() {
	n := 0
	for _, r := range c.replicas {
		if r.status == Up {
			n++
		}
	}
	c.m.up.Set(float64(n))
}

// load returns a replica's placement score inputs. Caller holds c.mu.
// With a probe installed the session count is the max of the scraped
// value and this coordinator's own placement count: the scrape sees load
// admitted elsewhere (other gateways, direct edge sessions) but lags by
// up to one scrape interval, during which our own count is the fresher
// signal — taking the max keeps placement stable under both.
func (r *replica) load() (int, float64) {
	if r.probe != nil {
		sessions, queue := r.probe()
		if r.count > sessions {
			sessions = r.count
		}
		return sessions, queue
	}
	return r.count, 0
}

// Pick chooses the replica a new connection should dial: the Up replica
// with headroom minimizing sessions + queueWeight·queueDepth (ties go
// to the lowest id — deterministic). A resume Hello prefers any replica
// other than the one the session died on. Read-only: nothing is
// committed until AdmitOn lands the handshake there.
func (c *Coordinator) Pick(now float64, h wire.Hello) (int, error) {
	_ = now
	c.lock()
	defer c.mu.Unlock()
	avoid := -1
	if rec, ok := c.records[h.ResumeToken]; ok {
		if r, live := c.replicas[rec.Replica]; live && r.status != Up {
			avoid = rec.Replica
		}
	}
	best, bestScore := -1, 0.0
	for _, id := range c.ids {
		r := c.replicas[id]
		if r.status != Up || id == avoid {
			continue
		}
		sessions, queue := r.load()
		if sessions >= c.cfg.ReplicaCapacity {
			continue
		}
		score := float64(sessions) + queueWeight*queue
		if best == -1 || score < bestScore {
			best, bestScore = id, score
		}
	}
	if best == -1 {
		return -1, errNoReplica
	}
	return best, nil
}

// AdmitOn commits a handshake onto a replica: it validates the replica
// is still Up with headroom, enforces the resume-burst limiter, issues
// or validates the resume token, and returns the Welcome the client
// should see. Refusals that retrying can fix return a
// *session.AdmissionError with a Retry-After hint.
func (c *Coordinator) AdmitOn(now float64, replicaID int, sessionID uint64, h wire.Hello) (wire.Welcome, error) {
	if h.ResumeToken == 0 {
		return c.admitFresh(now, replicaID, sessionID, h)
	}
	return c.admitResume(now, replicaID, sessionID, h)
}

// admitFresh validates the replica and commits a first placement.
func (c *Coordinator) admitFresh(now float64, replicaID int, sessionID uint64, h wire.Hello) (wire.Welcome, error) {
	c.lock()
	if err := c.validateReplicaLocked(now, replicaID, 0, 0); err != nil {
		c.mu.Unlock()
		return wire.Welcome{}, err
	}
	c.replicas[replicaID].count++
	// 0 means "no token" on the wire; a collision (astronomically rare)
	// just draws again
	tok := splitmix64(&c.tokState)
	for tok == 0 || c.records[tok] != nil {
		tok = splitmix64(&c.tokState)
	}
	c.records[tok] = &record{Token: tok, Hello: h, Replica: replicaID, Epoch: 1}
	c.decide(decAdmit, 0, replicaID, tok, 1)
	node := c.replicas[replicaID].node
	c.mu.Unlock()

	c.m.placed.Inc()
	c.cfg.Events.RecordAt(now, telemetry.EventAdmit, node, fmt.Sprintf("session %d", sessionID))
	return wire.Welcome{Session: sessionID, ResumeToken: tok, PoseEpoch: 1}, nil
}

// admitResume revalidates the replica, applies the burst limiter, and
// moves the placement.
func (c *Coordinator) admitResume(now float64, replicaID int, sessionID uint64, h wire.Hello) (wire.Welcome, error) {
	c.lock()
	rec, ok := c.records[h.ResumeToken]
	node := c.nodeLocked(replicaID)
	if !ok {
		c.decide(decRefuse, reasonUnknownToken, replicaID, h.ResumeToken, 0)
		c.mu.Unlock()
		c.m.refused.Inc()
		c.cfg.Events.RecordAt(now, telemetry.EventRefuse, node, "unknown resume token")
		return wire.Welcome{}, fmt.Errorf("%w: %#x", errUnknownToken, h.ResumeToken)
	}
	if err := c.validateReplicaLocked(now, replicaID, rec.Token, rec.Epoch); err != nil {
		c.mu.Unlock()
		return wire.Welcome{}, err
	}
	// resume-burst limiter: slide the window, refuse past the budget so
	// a dead replica's population trickles back instead of stampeding.
	keep := c.window[:0]
	for _, t := range c.window {
		if now-t < c.cfg.ResumeWindowSec {
			keep = append(keep, t)
		}
	}
	c.window = keep
	if len(c.window) >= c.cfg.ResumeBurst {
		c.decide(decRefuse, reasonResumeBurst, replicaID, rec.Token, rec.Epoch)
		c.mu.Unlock()
		c.m.refused.Inc()
		c.cfg.Events.RecordAt(now, telemetry.EventRefuse, node, "resume burst")
		return wire.Welcome{}, &session.AdmissionError{Reason: "resume burst", RetryAfter: c.cfg.RetryAfter}
	}
	c.window = append(c.window, now)

	// move the placement: the old replica (dead or draining) loses it
	if rec.Replica != replicaID {
		if old, live := c.replicas[rec.Replica]; live && old.count > 0 {
			old.count--
		}
		c.replicas[replicaID].count++
		rec.Replica = replicaID
	}
	rec.Epoch++
	c.decide(decResume, 0, replicaID, rec.Token, rec.Epoch)
	welcome := wire.Welcome{
		Session:     sessionID,
		ResumeToken: rec.Token,
		Resumed:     true,
		LastAckSeq:  rec.LastAckSeq,
		PoseEpoch:   rec.Epoch,
	}
	c.mu.Unlock()

	c.m.resumed.Inc()
	c.cfg.Events.RecordAt(now, telemetry.EventResume, node, fmt.Sprintf("epoch %d", welcome.PoseEpoch))
	return welcome, nil
}

// validateReplicaLocked checks the target replica is Up with headroom.
// Caller holds mu. A non-nil error is the refusal to return; the
// decision (against token and epoch, zero for a fresh admit) is already
// committed.
func (c *Coordinator) validateReplicaLocked(now float64, replicaID int, token, epoch uint64) error {
	r, ok := c.replicas[replicaID]
	if !ok || r.status != Up {
		name := "unknown"
		if ok {
			name = r.status.String()
		}
		c.decide(decRefuse, reasonReplicaGone, replicaID, token, epoch)
		c.m.refused.Inc()
		c.cfg.Events.RecordAt(now, telemetry.EventRefuse, c.nodeLocked(replicaID), "replica "+name)
		return &session.AdmissionError{
			Reason: fmt.Sprintf("replica %d %s", replicaID, name), RetryAfter: c.cfg.RetryAfter}
	}
	if sessions, _ := r.load(); sessions >= c.cfg.ReplicaCapacity {
		c.decide(decRefuse, reasonReplicaFull, replicaID, token, epoch)
		c.m.refused.Inc()
		c.cfg.Events.RecordAt(now, telemetry.EventRefuse, r.node, "replica full")
		return &session.AdmissionError{
			Reason: fmt.Sprintf("replica %d full", replicaID), RetryAfter: c.cfg.RetryAfter}
	}
	return nil
}

// ack records uplink progress for a session so a later resume can tell
// the client how much of its stream survived.
func (c *Coordinator) ack(token, seq uint64) {
	c.lock()
	defer c.mu.Unlock()
	if rec, ok := c.records[token]; ok && seq > rec.LastAckSeq {
		rec.LastAckSeq = seq
	}
}

// End retires a session terminally (client said Bye): the token is
// forgotten and the placement count released. Server-side deaths do NOT
// End — the record is exactly what lets the session come back.
func (c *Coordinator) End(token uint64) {
	c.lock()
	rec, ok := c.records[token]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.records, token)
	c.decide(decEnd, 0, rec.Replica, token, rec.Epoch)
	if r, live := c.replicas[rec.Replica]; live && r.count > 0 {
		r.count--
	}
	node := c.nodeLocked(rec.Replica)
	c.mu.Unlock()
	c.cfg.Events.Record(telemetry.EventEnd, node, "")
}

// Lookup returns a copy of a token's record.
func (c *Coordinator) Lookup(token uint64) (record, bool) {
	c.lock()
	defer c.mu.Unlock()
	if rec, ok := c.records[token]; ok {
		return *rec, true
	}
	return record{}, false
}

// Sessions returns how many sessions the coordinator has placed on a
// replica (its own count, not the probe's).
func (c *Coordinator) Sessions(replicaID int) int {
	c.lock()
	defer c.mu.Unlock()
	if r, ok := c.replicas[replicaID]; ok {
		return r.count
	}
	return 0
}

// placed returns copies of every record currently placed on a replica —
// the displaced population when that replica dies or drains.
func (c *Coordinator) placed(replicaID int) []record {
	c.lock()
	var out []record
	for _, rec := range c.records {
		if rec.Replica == replicaID {
			out = append(out, *rec)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// KillReplica marks a replica Down and returns the displaced records.
// Their resume tokens stay valid — that is the survivability contract.
func (c *Coordinator) KillReplica(replicaID int) []record {
	c.setStatus(replicaID, down)
	return c.placed(replicaID)
}

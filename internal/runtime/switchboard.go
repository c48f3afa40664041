// Package runtime implements ILLIXR's modular runtime and communication
// framework (§II-B): typed event streams ("topics") supporting writes,
// asynchronous reads (latest value) and synchronous reads (every value),
// a phonebook of shared services, and a loader that starts and stops
// plugins — interchangeable when they speak the same topics — as
// goroutines running in wall-clock time. The deterministic virtual-time scheduler used for the paper's
// experiments lives in internal/simsched.
package runtime

import (
	"fmt"
	"slices"
	"sync"

	"illixr/internal/telemetry"
)

// Event is a timestamped value on a topic. T is in seconds of session
// time.
type Event struct {
	T     float64
	Value any
	// Trace is the causal-lineage tag: the span that produced this event
	// and the trace (root sensor event) it descends from. Zero when
	// tracing is off; consumers propagate it into the spans they emit so a
	// display frame can be walked back to the IMU sample and camera frame
	// that produced it.
	Trace telemetry.SpanRef
}

// Topic is one event stream. Writers publish; asynchronous readers poll
// the latest value; synchronous readers receive every event in order.
type Topic struct {
	name   string
	mu     sync.Mutex
	latest Event
	hasAny bool
	seq    uint64
	// subs is an immutable snapshot: Subscribe/Cancel replace the slice
	// wholesale, so Publish can fan out over it outside the lock without
	// copying — keeping the publish path allocation-free. A lone
	// subscriber's snapshot is its own Subscription.self.
	subs []*Subscription
}

// fastTier is the most channel slots a subscription allocates up front.
// Subscribe's buffer argument is a bound, not an allocation: a session
// that queues 16 events behind a Subscribe(8192) pays for fastTier slots
// (2.5 KB of 40-byte events, not 320 KiB) and for a ring only once its
// consumer has actually fallen that far behind. None of the four
// benchmark workloads queues past 64 on any subscription, and 64 vs 256
// measured the same on all of them (DESIGN.md §4), so the smaller wins.
const fastTier = 64

// Subscription is a synchronous reader handle: every event published
// after Subscribe is delivered on C in order, at most the subscribed
// buffer depth queued at once. Events beyond the fast tier reach C
// through a goroutine, so an empty C (len(C) == 0, or a select falling to
// default) does not mean nothing is queued, and an event published before
// one on another topic may become receivable after it: a consumer that
// needs everything published so far receives, blocking, up to the topic's
// Latest (VIOPlugin does).
type Subscription struct {
	C     chan Event
	topic *Topic
	// self is the topic's snapshot while this is its only live
	// subscriber: a one-element array set before Subscribe hands s to
	// the topic and never written again, so a Publish still ranging over
	// it after Cancel reads what it always held.
	self [1]*Subscription
	// limit is how many events may queue in the ring behind a full C:
	// buffer - cap(C), zero for every buffer that fits the fast tier.
	limit int

	// life guards closed so Publish never sends on a channel Cancel has
	// closed: delivery holds it for the duration of the send, Cancel takes
	// it before closing. Always acquired after (never inside) topic.mu.
	life   sync.Mutex
	closed bool
	// ring is the overflow queue (circular: n events from head), grown by
	// doubling up to limit and kept once grown. It is non-empty exactly
	// while a pump goroutine is live, and ring[head] is the event that
	// pump is sending; deliver goes through the ring for as long, so C
	// never sees events out of order.
	ring    []Event
	head, n int
	stop    chan struct{} // closed by Cancel to release a blocked pump; made with the first pump
	pumps   sync.WaitGroup
}

// Cancel detaches the subscription and closes its channel. Safe against
// concurrent Publish and idempotent. Events still in the overflow ring
// are discarded; a pump blocked on a full C is released and waited for
// before C closes, so nothing ever sends on the closed channel.
func (s *Subscription) Cancel() {
	s.topic.mu.Lock()
	subs := s.topic.subs
	if i := slices.Index(subs, s); i >= 0 {
		// a new snapshot without s: nil once none is left, the survivor's
		// own one-element array once one is, otherwise a fresh copy
		switch len(subs) {
		case 1:
			subs = nil
		case 2:
			subs = subs[1-i].self[:]
		default:
			subs = slices.Concat(subs[:i], subs[i+1:])
		}
		s.topic.subs = subs
	}
	s.topic.mu.Unlock()

	s.life.Lock()
	if s.closed {
		s.life.Unlock()
		return
	}
	s.closed = true
	if s.stop != nil {
		close(s.stop)
	}
	s.life.Unlock()
	s.pumps.Wait()
	close(s.C)
}

// Drained reports whether C is empty with nothing behind it in the
// overflow ring. A sole consumer that finds len(C) == 0 cannot tell the
// end of a burst from a pause while the pump refills C; Drained can. It
// leaves out the one event the pump may be handing over at that moment,
// so true can mean one more event is on its way — an extra end of burst,
// never a missed one.
func (s *Subscription) Drained() bool {
	s.life.Lock()
	defer s.life.Unlock()
	// the pump advances only under life, so it can land at most its
	// in-flight event in C while this looks
	return len(s.C) == 0 && (s.n <= 1 || s.closed)
}

// deliver sends one event with latest-wins backpressure, skipping the
// send entirely if the subscription has been cancelled.
func (s *Subscription) deliver(ev Event) {
	s.life.Lock()
	defer s.life.Unlock()
	if s.closed {
		return
	}
	if s.n == 0 {
		select {
		case s.C <- ev:
			return
		default:
		}
		if s.limit == 0 {
			// drop one, retry once
			select {
			case <-s.C:
			default:
			}
			select {
			case s.C <- ev:
			default:
			}
			return
		}
		// first overflow of an episode: queue the event and start the pump
		// (it cannot look at the ring before deliver releases life)
		if s.stop == nil {
			s.stop = make(chan struct{})
		}
		s.pumps.Add(1)
		go s.pump()
	} else if s.n == s.limit {
		// a pump is live and the ring is at its bound. The victim is the
		// oldest event not already on its way into C, i.e. the second in
		// the ring (limit >= 2, see Subscribe): moving the in-flight head
		// over it removes it in O(1).
		next := s.head + 1
		if next == len(s.ring) {
			next = 0
		}
		s.ring[next], s.ring[s.head] = s.ring[s.head], Event{}
		s.head = next
		s.n--
	}
	s.push(ev)
}

// push appends ev to the ring, doubling it (up to limit) when full.
// Callers hold life and have made room at the bound.
func (s *Subscription) push(ev Event) {
	if s.n == len(s.ring) {
		size := 2 * len(s.ring)
		if size == 0 {
			size = cap(s.C)
		}
		if size > s.limit {
			size = s.limit
		}
		grown := make([]Event, size)
		k := copy(grown, s.ring[s.head:])
		copy(grown[k:], s.ring[:s.head])
		s.ring, s.head = grown, 0
	}
	tail := s.head + s.n
	if tail >= len(s.ring) {
		tail -= len(s.ring)
	}
	s.ring[tail] = ev
	s.n++
}

// pump moves the ring into C with blocking sends until it is empty (or
// the subscription is cancelled), then exits: transient, one per overflow
// episode. The event being sent stays at ring[head] until C has taken it,
// so it counts toward the bound and deliver never displaces it.
func (s *Subscription) pump() {
	defer s.pumps.Done()
	s.life.Lock()
	for s.n > 0 && !s.closed {
		ev := s.ring[s.head]
		s.life.Unlock()
		select {
		case s.C <- ev:
		case <-s.stop:
			return
		}
		s.life.Lock()
		s.ring[s.head] = Event{}
		if s.head++; s.head == len(s.ring) {
			s.head = 0
		}
		s.n--
	}
	s.life.Unlock()
}

// Publish writes an event to the topic. A synchronous subscriber already
// holding its full depth drops an old event to take the new one
// (latest-wins backpressure, matching an XR runtime where stale sensor
// data is worthless). Publish performs no allocations.
func (t *Topic) Publish(ev Event) {
	t.mu.Lock()
	t.latest = ev
	t.hasAny = true
	t.seq++
	subs := t.subs
	t.mu.Unlock()
	for _, s := range subs {
		s.deliver(ev)
	}
}

// Latest performs an asynchronous read: the most recent event, if any.
func (t *Topic) Latest() (Event, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latest, t.hasAny
}

// Seq returns the number of events ever published (for staleness checks).
func (t *Topic) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Subscribe performs a synchronous-read registration that queues at most
// buffer events. Only min(buffer, fastTier) channel slots are allocated
// now; the rest of the depth is an overflow ring that exists once a
// consumer has fallen a full fast tier behind (see Subscription).
func (t *Topic) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	fast := buffer
	// a ring of one would hold only the pump's in-flight event and leave
	// latest-wins nothing to displace, so fastTier+1 stays all channel
	if buffer > fastTier+1 {
		fast = fastTier
	}
	s := &Subscription{C: make(chan Event, fast), topic: t, limit: buffer - fast}
	s.self[0] = s
	t.mu.Lock()
	if len(t.subs) == 0 {
		t.subs = s.self[:] // a first subscriber costs no snapshot slice
	} else {
		subs := make([]*Subscription, len(t.subs)+1)
		copy(subs, t.subs)
		subs[len(t.subs)] = s
		t.subs = subs
	}
	t.mu.Unlock()
	return s
}

// inlineTopics is how many topics a switchboard holds in its own
// memory: every stream the integrated system names (the constants
// below), so a loader's runtime is one allocation.
const inlineTopics = 6

// Switchboard is the topic directory. A handful of topics is scanned
// faster than a map is built: the first inlineTopics live inside the
// switchboard, later ones are allocated one by one, and no topic ever
// moves, so a *Topic stays valid for the switchboard's life. The zero
// value is an empty switchboard.
type Switchboard struct {
	mu     sync.Mutex
	inline [inlineTopics]Topic
	n      int      // inline topics in use
	more   []*Topic // topics past the inline count
}

// NewSwitchboard creates an empty switchboard.
func NewSwitchboard() *Switchboard { return &Switchboard{} }

// GetTopic returns the named topic, creating it on first use.
func (sb *Switchboard) GetTopic(name string) *Topic {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i := range sb.inline[:sb.n] {
		if t := &sb.inline[i]; t.name == name {
			return t
		}
	}
	for _, t := range sb.more {
		if t.name == name {
			return t
		}
	}
	if sb.n < inlineTopics {
		t := &sb.inline[sb.n]
		t.name = name
		sb.n++
		return t
	}
	t := &Topic{name: name}
	sb.more = append(sb.more, t)
	return t
}

// Topics lists all topic names in creation order.
func (sb *Switchboard) Topics() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]string, 0, sb.n+len(sb.more))
	for i := range sb.inline[:sb.n] {
		out = append(out, sb.inline[i].name)
	}
	for _, t := range sb.more {
		out = append(out, t.name)
	}
	return out
}

// Topic names of the streams the integrated system publishes (a subset
// of Fig 2's: the ones a plugin here actually carries).
const (
	TopicIMU      = "imu"         // sensors.IMUSample
	TopicCamera   = "cam"         // sensors.CameraFrame
	TopicSlowPose = "slow_pose"   // vio.Estimate
	TopicFastPose = "fast_pose"   // integrator fast pose
	TopicWarped   = "reprojected" // final display frame
	TopicBinaural = "binaural"    // *[2][]float64 stereo block (left, right), reused two blocks on
)

// Phonebook is the service directory plugins use to look up shared
// facilities (the analogue of ILLIXR's phonebook). The product registers
// at most two services, so they sit in an inline array scanned by name;
// a third grows the list onto the heap. The zero value is empty.
type Phonebook struct {
	mu       sync.Mutex
	services []service // backed by inline until it outgrows it
	inline   [2]service
}

type service struct {
	name string
	svc  any
}

// Register stores a service under a name; duplicate registration is an
// error (plugins must not silently shadow each other).
func (p *Phonebook) Register(name string, svc any) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.find(name) >= 0 {
		return fmt.Errorf("runtime: service %q already registered", name)
	}
	if p.services == nil {
		p.services = p.inline[:0]
	}
	p.services = append(p.services, service{name, svc})
	return nil
}

// Lookup fetches a service by name.
func (p *Phonebook) Lookup(name string) (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := p.find(name); i >= 0 {
		return p.services[i].svc, true
	}
	return nil, false
}

// find returns the index of the named service, or -1. Caller holds mu.
func (p *Phonebook) find(name string) int {
	for i := range p.services {
		if p.services[i].name == name {
			return i
		}
	}
	return -1
}

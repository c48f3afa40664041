// Package runtime implements ILLIXR's modular runtime and communication
// framework (§II-B): typed event streams ("topics") supporting writes,
// asynchronous reads (latest value) and synchronous reads (every value),
// a plugin registry with interchangeable implementations per role, and a
// live goroutine-based scheduler for running the system in wall-clock
// time. The deterministic virtual-time scheduler used for the paper's
// experiments lives in internal/simsched.
package runtime

import (
	"fmt"
	"sync"
	"time"

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

// topicMetrics holds a topic's pre-resolved instruments so the publish
// hot path is a few atomic ops; nil when no collector is installed.
type topicMetrics struct {
	published *telemetry.Counter   // events published
	dropped   *telemetry.Counter   // events displaced by backpressure
	depth     *telemetry.Gauge     // max subscriber queue depth after publish
	deliverNs *telemetry.Histogram // wall time of the fan-out, nanoseconds
}

func newTopicMetrics(reg *telemetry.Registry, topic string) *topicMetrics {
	comp := "topic_" + topic
	return &topicMetrics{
		published: reg.Counter(telemetry.MetricName(comp, "published_total")),
		dropped:   reg.Counter(telemetry.MetricName(comp, "dropped_total")),
		depth:     reg.Gauge(telemetry.MetricName(comp, "queue_depth")),
		deliverNs: reg.Histogram(telemetry.MetricName(comp, "publish_ns")),
	}
}

// Topic is one event stream. Writers publish; asynchronous readers poll
// the latest value; synchronous readers receive every event in order.
type Topic struct {
	name string

	mu     sync.Mutex
	latest Event
	hasAny bool
	seq    uint64
	// subs is an immutable snapshot: Subscribe/Cancel replace the slice
	// wholesale, so Publish can fan out over it outside the lock without
	// copying — keeping the uninstrumented publish path allocation-free.
	subs []*Subscription
	m    *topicMetrics
}

// Subscription is a synchronous reader handle: every event published
// after Subscribe is delivered on C in order.
type Subscription struct {
	C     chan Event
	topic *Topic

	// life guards closed so Publish never sends on a channel Cancel has
	// closed: delivery holds it for the duration of the send, Cancel takes
	// it before closing. Always acquired after (never inside) topic.mu.
	life   sync.Mutex
	closed bool
}

// Cancel detaches the subscription and closes its channel. Safe against
// concurrent Publish and idempotent.
func (s *Subscription) Cancel() {
	s.topic.mu.Lock()
	subs := make([]*Subscription, 0, len(s.topic.subs))
	for _, sub := range s.topic.subs {
		if sub != s {
			subs = append(subs, sub)
		}
	}
	s.topic.subs = subs
	s.topic.mu.Unlock()

	s.life.Lock()
	defer s.life.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.C)
}

// deliver sends one event with latest-wins backpressure, skipping the
// send entirely if the subscription has been cancelled. Reports whether
// an older event was displaced to make room.
func (s *Subscription) deliver(ev Event) (displaced bool) {
	s.life.Lock()
	defer s.life.Unlock()
	if s.closed {
		return false
	}
	select {
	case s.C <- ev:
	default:
		// drop one, retry once
		select {
		case <-s.C:
			displaced = true
		default:
		}
		select {
		case s.C <- ev:
		default:
		}
	}
	return displaced
}

// Publish writes an event to the topic. Synchronous subscribers with full
// buffers drop the oldest event (latest-wins backpressure, matching an XR
// runtime where stale sensor data is worthless). With no metrics
// collector installed the publish path performs no allocations.
func (t *Topic) Publish(ev Event) {
	t.mu.Lock()
	t.latest = ev
	t.hasAny = true
	t.seq++
	subs := t.subs
	m := t.m
	t.mu.Unlock()
	var begin time.Time
	if m != nil {
		begin = time.Now()
	}
	displaced := 0
	for _, s := range subs {
		if s.deliver(ev) {
			displaced++
		}
	}
	if m != nil {
		m.deliverNs.Observe(float64(time.Since(begin).Nanoseconds()))
		m.published.Inc()
		m.dropped.Add(displaced)
		maxDepth := 0
		for _, s := range subs {
			if d := len(s.C); d > maxDepth {
				maxDepth = d
			}
		}
		m.depth.Set(float64(maxDepth))
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

// Subscribe performs a synchronous-read registration with the given
// buffer capacity.
func (t *Topic) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{C: make(chan Event, buffer), topic: t}
	t.mu.Lock()
	subs := make([]*Subscription, len(t.subs)+1)
	copy(subs, t.subs)
	subs[len(t.subs)] = s
	t.subs = subs
	t.mu.Unlock()
	return s
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Switchboard is the topic directory.
type Switchboard struct {
	mu      sync.Mutex
	topics  map[string]*Topic
	metrics *telemetry.Registry
}

// NewSwitchboard creates an empty switchboard.
func NewSwitchboard() *Switchboard {
	return &Switchboard{topics: map[string]*Topic{}}
}

// SetMetrics installs a metrics collector: every topic (existing and
// future) gets publish/drop counters, a queue-depth gauge, and a publish
// fan-out latency histogram under illixr_topic_<name>_*. A nil registry
// uninstalls instrumentation.
func (sb *Switchboard) SetMetrics(reg *telemetry.Registry) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.metrics = reg
	for name, t := range sb.topics {
		var m *topicMetrics
		if reg != nil {
			m = newTopicMetrics(reg, name)
		}
		t.mu.Lock()
		t.m = m
		t.mu.Unlock()
	}
}

// GetTopic returns the named topic, creating it on first use.
func (sb *Switchboard) GetTopic(name string) *Topic {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	t, ok := sb.topics[name]
	if !ok {
		t = &Topic{name: name}
		if sb.metrics != nil {
			t.m = newTopicMetrics(sb.metrics, name)
		}
		sb.topics[name] = t
	}
	return t
}

// Topics lists all topic names.
func (sb *Switchboard) Topics() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]string, 0, len(sb.topics))
	for n := range sb.topics {
		out = append(out, n)
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
	TopicBinaural = "binaural"    // stereo output block
)

// Phonebook is the service directory plugins use to look up shared
// facilities (the analogue of ILLIXR's phonebook).
type Phonebook struct {
	mu       sync.Mutex
	services map[string]any
}

// NewPhonebook creates an empty phonebook.
func NewPhonebook() *Phonebook { return &Phonebook{services: map[string]any{}} }

// Register stores a service under a name; duplicate registration is an
// error (plugins must not silently shadow each other).
func (p *Phonebook) Register(name string, svc any) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.services[name]; exists {
		return fmt.Errorf("runtime: service %q already registered", name)
	}
	p.services[name] = svc
	return nil
}

// Lookup fetches a service by name.
func (p *Phonebook) Lookup(name string) (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.services[name]
	return s, ok
}

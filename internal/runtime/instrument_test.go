package runtime

// Tests for the observability instrumentation of the runtime: topic
// metrics, health/restart/watchdog mirroring onto the registry, trace
// refs on events, and the acceptance guarantee that uninstrumented hot
// paths allocate nothing.

import (
	"testing"

	"illixr/internal/telemetry"
)

func TestPublishNoCollectorZeroAllocs(t *testing.T) {
	sb := NewSwitchboard()
	topic := sb.GetTopic("alloc_test")
	sub := topic.Subscribe(8)
	defer sub.Cancel()
	go func() {
		for range sub.C {
		}
	}()
	ev := Event{T: 1, Value: 42} // boxed once, outside the measured loop
	allocs := testing.AllocsPerRun(1000, func() {
		topic.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("Publish with no collector allocated %.1f per run, want 0", allocs)
	}
}

func TestTopicMetrics(t *testing.T) {
	sb := NewSwitchboard()
	reg := telemetry.NewRegistry()
	pre := sb.GetTopic("pre") // created before SetMetrics: must be retrofitted
	sb.SetMetrics(reg)
	post := sb.GetTopic("post")

	pre.Publish(Event{T: 0, Value: 1})
	post.Publish(Event{T: 0, Value: 1})
	post.Publish(Event{T: 1, Value: 2})

	if got := reg.Counter("illixr_topic_pre_published_total").Value(); got != 1 {
		t.Errorf("pre published = %d, want 1", got)
	}
	if got := reg.Counter("illixr_topic_post_published_total").Value(); got != 2 {
		t.Errorf("post published = %d, want 2", got)
	}
	if got := reg.Histogram("illixr_topic_post_publish_ns").Count(); got != 2 {
		t.Errorf("publish latency observations = %d, want 2", got)
	}
}

func TestTopicMetricsCountBackpressureDrops(t *testing.T) {
	sb := NewSwitchboard()
	reg := telemetry.NewRegistry()
	sb.SetMetrics(reg)
	topic := sb.GetTopic("drops")
	sub := topic.Subscribe(1) // nothing draining: every publish past the first displaces
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		topic.Publish(Event{T: float64(i), Value: i})
	}
	if got := reg.Counter("illixr_topic_drops_dropped_total").Value(); got != 4 {
		t.Errorf("dropped = %d, want 4", got)
	}
	if got := reg.Gauge("illixr_topic_drops_queue_depth").Value(); got != 1 {
		t.Errorf("depth = %g, want 1", got)
	}
}

func TestEventCarriesTraceRef(t *testing.T) {
	sb := NewSwitchboard()
	topic := sb.GetTopic("traced")
	sub := topic.Subscribe(1)
	defer sub.Cancel()
	ref := telemetry.SpanRef{Trace: 7, Span: 9}
	topic.Publish(Event{T: 1, Value: "x", Trace: ref})
	got := <-sub.C
	if got.Trace != ref {
		t.Fatalf("delivered trace ref = %+v, want %+v", got.Trace, ref)
	}
	latest, ok := topic.Latest()
	if !ok || latest.Trace != ref {
		t.Fatalf("latest trace ref = %+v, want %+v", latest.Trace, ref)
	}
}

func TestSubscribeCancelSnapshotIsolation(t *testing.T) {
	// Publish reads the subscriber slice outside the lock; Subscribe and
	// Cancel must replace (not mutate) it. Interleave them and verify
	// delivery still works.
	sb := NewSwitchboard()
	topic := sb.GetTopic("iso")
	a := topic.Subscribe(16)
	b := topic.Subscribe(16)
	topic.Publish(Event{T: 1})
	a.Cancel()
	topic.Publish(Event{T: 2})
	if got := len(b.C); got != 2 {
		t.Fatalf("b received %d events, want 2", got)
	}
	if got := len(a.C); got != 1 {
		t.Fatalf("a received %d events before cancel, want 1", got)
	}
	b.Cancel()
}

// The last Cancel on a topic leaves no subscriber slice behind, and a
// second Cancel of the same subscription drops no one else.
func TestCancelLastSubscriberLeavesNil(t *testing.T) {
	topic := NewSwitchboard().GetTopic("t")
	a, b := topic.Subscribe(1), topic.Subscribe(1)
	a.Cancel()
	a.Cancel()
	if len(topic.subs) != 1 || topic.subs[0] != b {
		t.Fatalf("after cancelling a twice: %d subscribers, want b alone", len(topic.subs))
	}
	b.Cancel()
	if topic.subs != nil {
		t.Fatalf("no subscriber left but subs = %#v, want nil", topic.subs)
	}
	topic.Publish(Event{T: 1}) // a publish to nobody is fine
}

package runtime

import (
	"testing"

	"illixr/internal/testutil"
)

// TestZeroAllocPublish pins the uninstrumented publish fan-out at zero
// steady-state allocations, including the latest-wins displacement path
// (the subscriber below is never drained, so every publish displaces).
func TestZeroAllocPublish(t *testing.T) {
	sb := NewSwitchboard()
	topic := sb.GetTopic("alloc_probe")
	sub := topic.Subscribe(1)
	defer sub.Cancel()
	val := &struct{ seq int }{1} // pre-boxed so Publish never re-boxes
	ev := Event{T: 1, Value: val}
	testutil.MustZeroAllocs(t, "Topic.Publish", func() { topic.Publish(ev) })
}

// TestZeroAllocGetTopic pins topic lookup at zero allocations: for a
// name the switchboard already holds, and for the first inlineTopics
// names of a fresh loader, which live inside its one allocation.
func TestZeroAllocGetTopic(t *testing.T) {
	names := []string{TopicIMU, TopicCamera, TopicSlowPose, TopicFastPose, TopicWarped, TopicBinaural}
	if len(names) != inlineTopics {
		t.Fatalf("%d product topics, %d inline", len(names), inlineTopics)
	}
	sb := NewSwitchboard()
	for _, n := range names {
		sb.GetTopic(n)
	}
	testutil.MustZeroAllocs(t, "GetTopic of an existing name", func() {
		for _, n := range names {
			sb.GetTopic(n)
		}
	})
	// more loaders than MustZeroAllocs makes calls, so each call fills a
	// fresh one
	loaders := make([]*Loader, 200)
	for i := range loaders {
		loaders[i] = NewLoader()
	}
	next := 0
	testutil.MustZeroAllocs(t, "GetTopic on a fresh loader", func() {
		fresh := loaders[next%len(loaders)].Context().Switchboard
		next++
		for _, n := range names {
			fresh.GetTopic(n)
		}
	})
}

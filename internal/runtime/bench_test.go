package runtime

import (
	"strconv"
	"testing"
)

// BenchmarkSubscribeCancel is what standing up and dropping one
// synchronous reader costs at the depths the offload stack subscribes
// with: flat past the fast tier.
func BenchmarkSubscribeCancel(b *testing.B) {
	for _, depth := range []int{64, 1024, 8192} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			top := NewSwitchboard().GetTopic("bench")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				top.Subscribe(depth).Cancel()
			}
		})
	}
}

// BenchmarkPublishDeliver is the fast tier: the consumer keeps up, so
// every event is one non-blocking channel send.
func BenchmarkPublishDeliver(b *testing.B) {
	top := NewSwitchboard().GetTopic("bench")
	sub := top.Subscribe(8192)
	ev := Event{T: 1, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.Publish(ev)
		<-sub.C
	}
	b.StopTimer()
	sub.Cancel()
}

// BenchmarkPublishOverflow keeps the pump engaged: each op publishes four
// fast tiers' worth before the consumer drains them, so three quarters of
// the events go channel-full -> ring -> pump -> channel.
func BenchmarkPublishOverflow(b *testing.B) {
	const burst = 4 * fastTier
	top := NewSwitchboard().GetTopic("bench")
	sub := top.Subscribe(8192)
	ev := Event{T: 1, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			top.Publish(ev)
		}
		for j := 0; j < burst; j++ {
			<-sub.C
		}
	}
	b.StopTimer()
	sub.Cancel()
}

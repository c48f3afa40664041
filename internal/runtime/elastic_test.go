package runtime

// Tests for the elastic subscription (DESIGN.md §4): the subscribed depth
// is a bound the consumer can fall behind by, not memory Subscribe
// allocates, and the overflow ring + transient pump behind the fast-tier
// channel keep order, the latest-wins count and Cancel's no-send-on-closed
// guarantee.

import (
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"illixr/internal/telemetry"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// deep is a subscription depth well past the fast tier.
const deep = 16 * fastTier

func TestSubscribeCostIndependentOfDepth(t *testing.T) {
	top := NewSwitchboard().GetTopic("cost")
	cost := func(buffer int) uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			top.Subscribe(buffer).Cancel()
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fast, deepest := cost(fastTier), cost(8192)
	if deepest > 2*fast {
		t.Fatalf("Subscribe(8192)+Cancel allocated %d B per 1000, Subscribe(%d) %d B: depth is being paid up front",
			deepest, fastTier, fast)
	}
}

// stalledSub subscribes at depth buffer with nobody reading and publishes
// events T = 0..publish-1.
func stalledSub(t *testing.T, buffer, publish int) (*Subscription, *telemetry.Registry) {
	t.Helper()
	sb := NewSwitchboard()
	reg := telemetry.NewRegistry()
	sb.SetMetrics(reg)
	top := sb.GetTopic("stalled")
	sub := top.Subscribe(buffer)
	t.Cleanup(sub.Cancel)
	for i := 0; i < publish; i++ {
		top.Publish(Event{T: float64(i)})
	}
	return sub, reg
}

// drain receives want events and then checks the subscription holds
// nothing more.
func drain(t *testing.T, sub *Subscription, want int) []float64 {
	t.Helper()
	got := make([]float64, 0, want)
	timeout := time.After(5 * time.Second)
	for len(got) < want {
		select {
		case ev := <-sub.C:
			got = append(got, ev.T)
		case <-timeout:
			t.Fatalf("received %d of %d events", len(got), want)
		}
	}
	sub.pumps.Wait() // the pump pops its last event after C has taken it
	sub.life.Lock()
	left := len(sub.C) + sub.n
	sub.life.Unlock()
	if left != 0 {
		t.Fatalf("%d events still queued after draining %d", left, want)
	}
	return got
}

func TestStalledConsumerKeepsFullDepth(t *testing.T) {
	sub, reg := stalledSub(t, deep, deep)
	if got := reg.Gauge("illixr_topic_stalled_queue_depth").Value(); got != deep {
		t.Errorf("queue_depth = %g, want %d (channel + ring)", got, deep)
	}
	for i, T := range drain(t, sub, deep) {
		if T != float64(i) {
			t.Fatalf("event %d has T=%g: lost or reordered", i, T)
		}
	}
	if got := reg.Counter("illixr_topic_stalled_dropped_total").Value(); got != 0 {
		t.Errorf("dropped_total = %d, want 0", got)
	}
}

func TestStalledConsumerDisplacesExactlyOverflow(t *testing.T) {
	const k = 37
	sub, reg := stalledSub(t, deep, deep+k)
	if got := reg.Counter("illixr_topic_stalled_dropped_total").Value(); got != k {
		t.Errorf("dropped_total = %d, want %d", got, k)
	}
	if got := reg.Gauge("illixr_topic_stalled_queue_depth").Value(); got != deep {
		t.Errorf("queue_depth = %g, want the bound %d", got, deep)
	}
	// what was already in C or on its way there stays; behind it the newest
	// win, ending with the last event published
	got := drain(t, sub, deep)
	kept := fastTier + 1
	for i, T := range got {
		want := float64(i)
		if i >= kept {
			want = float64(i + k)
		}
		if T != want {
			t.Fatalf("event %d has T=%g, want %g", i, T, want)
		}
	}
}

// TestDrainedMarksTheEndNotAPause: a sole consumer that takes an empty C
// that is also Drained as the end of a burst (the uplink forwarder
// flushes there) sees that end only at the burst's last event, or one
// before it while the pump is still handing the last one over — never in
// the middle of a backlog the pump is still moving.
func TestDrainedMarksTheEndNotAPause(t *testing.T) {
	const published = 3 * fastTier
	for round := 0; round < 20; round++ {
		sub, _ := stalledSub(t, deep, published)
		if sub.Drained() {
			t.Fatal("a subscription two fast tiers behind reports Drained")
		}
		var ends []int
		timeout := time.After(5 * time.Second)
		for i := 0; i < published; i++ {
			select {
			case ev := <-sub.C:
				if ev.T != float64(i) {
					t.Fatalf("event %d has T=%g", i, ev.T)
				}
			case <-timeout:
				t.Fatalf("received %d of %d events", i, published)
			}
			if len(sub.C) == 0 && sub.Drained() {
				ends = append(ends, i)
			}
		}
		if len(ends) == 0 || ends[len(ends)-1] != published-1 || ends[0] < published-2 {
			t.Fatalf("round %d: burst of %d ended at %v, want at %d (and at most once before it)",
				round, published, ends, published-1)
		}
		sub.Cancel()
		if !sub.Drained() {
			t.Fatal("a cancelled, emptied subscription is not Drained")
		}
	}
}

// TestFastTierPlusOneStaysAllChannel pins the one depth that gets no ring:
// a ring of one could never displace anything but the in-flight event.
func TestFastTierPlusOneStaysAllChannel(t *testing.T) {
	sub, reg := stalledSub(t, fastTier+1, fastTier+3)
	if cap(sub.C) != fastTier+1 || sub.limit != 0 {
		t.Fatalf("cap(C)=%d limit=%d, want %d and 0", cap(sub.C), sub.limit, fastTier+1)
	}
	if got := reg.Counter("illixr_topic_stalled_dropped_total").Value(); got != 2 {
		t.Errorf("dropped_total = %d, want 2", got)
	}
	if got := drain(t, sub, fastTier+1); got[0] != 2 || got[fastTier] != fastTier+2 {
		t.Errorf("survivors span T=%g..%g, want 2..%d", got[0], got[fastTier], fastTier+2)
	}
}

// TestConsumerRacesPublisherAcrossFastTier lets a consumer that stalls now
// and then fall behind a flat-out publisher and catch up again, so events
// cross from channel to ring to pump and back many times.
func TestConsumerRacesPublisherAcrossFastTier(t *testing.T) {
	const published = 100_000
	sb := NewSwitchboard()
	reg := telemetry.NewRegistry()
	sb.SetMetrics(reg)
	top := sb.GetTopic("race")
	sub := top.Subscribe(4 * fastTier)
	defer sub.Cancel()
	dropped := reg.Counter("illixr_topic_race_dropped_total")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= published; i++ {
			top.Publish(Event{T: float64(i)})
			if i%(3*fastTier) == 0 {
				goruntime.Gosched() // let the consumer catch up: pump episodes end
			}
		}
	}()

	received, last := uint64(0), 0.0
	recv := func(ev Event) {
		if ev.T <= last {
			t.Fatalf("T=%g after T=%g: order lost", ev.T, last)
		}
		last = ev.T
		received++
	}
	timeout := time.After(30 * time.Second)
	for publishing := true; publishing; {
		select {
		case ev := <-sub.C:
			recv(ev)
			if received%1000 == 0 {
				time.Sleep(50 * time.Microsecond) // fall a fast tier behind
			}
		case <-done:
			publishing = false
		case <-timeout:
			t.Fatalf("publisher still running; received %d", received)
		}
	}
	for received+dropped.Value() < published {
		select {
		case ev := <-sub.C:
			recv(ev)
		case <-timeout:
			t.Fatalf("received %d + displaced %d != published %d", received, dropped.Value(), published)
		}
	}
	t.Logf("received %d, displaced %d", received, dropped.Value())
	if last != published {
		t.Errorf("last event T=%g, want the newest (%d)", last, published)
	}
	sub.pumps.Wait()
	if n := len(sub.C); n != 0 {
		t.Errorf("%d events left over: received %d + displaced %d + left > published", n, received, dropped.Value())
	}
}

// TestCancelReleasesBlockedPump cancels while the pump is parked on a full
// C and publishers are mid-deliver: no send on the closed channel, C
// closes, and neither pump nor publisher goroutines outlive it.
func TestCancelReleasesBlockedPump(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	baseline := goruntime.NumGoroutine()
	top := NewSwitchboard().GetTopic("cancel")
	for round := 0; round < 200; round++ {
		sub := top.Subscribe(deep)
		for i := 0; i < fastTier+8; i++ { // nobody reads: the pump blocks
			top.Publish(Event{T: float64(i)})
		}
		var pubs sync.WaitGroup
		stop := make(chan struct{})
		for p := 0; p < 2; p++ {
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				for {
					select {
					case <-stop:
						return
					default:
						top.Publish(Event{T: 1})
					}
				}
			}()
		}
		// odd rounds cancel a pump that is cycling, not parked: a reader
		// keeps taking what it sends
		drained := make(chan int)
		reader := func() {
			n := 0
			for range sub.C { // terminates only because Cancel closed C
				n++
			}
			drained <- n
		}
		if round%2 == 1 {
			go reader()
			goruntime.Gosched()
		}
		sub.Cancel()
		sub.Cancel() // idempotent
		close(stop)
		pubs.Wait()
		if round%2 == 0 {
			go reader()
			if n := <-drained; n != fastTier {
				t.Fatalf("round %d: %d events in the closed channel, want the full fast tier", round, n)
			}
		} else {
			<-drained
		}
	}
	eventually(t, "goroutines back to baseline", func() bool {
		return goruntime.NumGoroutine() <= baseline
	})
}

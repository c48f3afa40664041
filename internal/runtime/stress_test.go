package runtime

import (
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSwitchboardPublishCancelStress hammers one topic with concurrent
// publishers while subscribers churn (subscribe, read a little, cancel).
// Before the subscription-lifecycle fix, Publish could send on a channel
// Cancel had just closed, panicking the publisher; this test fails under
// -race (and usually panics outright) on that version.
func TestSwitchboardPublishCancelStress(t *testing.T) {
	// run with real parallelism even on single-core CI so goroutines
	// genuinely interleave inside Publish's fan-out loop
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(8))
	sb := NewSwitchboard()
	top := sb.GetTopic("stress")

	const (
		publishers = 4
		churners   = 8
		publishes  = 5000
		churns     = 300
		batch      = 32
	)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < publishes; i++ {
				top.Publish(Event{T: float64(i), Value: p})
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			subs := make([]*Subscription, batch)
			for i := 0; i < churns; i++ {
				// a batch of tiny-buffer subscriptions keeps Publish's
				// fan-out loop long and in the drop-oldest retry path,
				// widening the send window Cancel races against
				for j := range subs {
					subs[j] = top.Subscribe(1)
				}
				for j := range subs {
					if (i+j)%2 == 0 {
						select {
						case <-subs[j].C:
						default:
						}
					}
					subs[j].Cancel()
					// double-cancel must stay a no-op
					subs[j].Cancel()
				}
			}
		}(c)
	}
	wg.Wait()
	if top.Seq() != publishers*publishes {
		t.Errorf("seq = %d, want %d", top.Seq(), publishers*publishes)
	}
	// all subscriptions cancelled: a final publish must reach nobody and
	// not panic
	top.Publish(Event{T: 1, Value: "tail"})
}

// TestCancelledSubscriptionDropsLateEvents verifies Publish silently
// skips a cancelled subscription instead of panicking or delivering.
func TestCancelledSubscriptionDropsLateEvents(t *testing.T) {
	sb := NewSwitchboard()
	top := sb.GetTopic("x")
	sub := top.Subscribe(4)
	sub.Cancel()
	top.Publish(Event{T: 1, Value: 1})
	if _, open := <-sub.C; open {
		t.Error("cancelled channel delivered an event")
	}
}

// TestShutdownAggregatesAllErrors verifies Loader.Shutdown stops every
// plugin and joins all errors instead of returning only the first.
func TestShutdownAggregatesAllErrors(t *testing.T) {
	l := NewLoader()
	a := &stopFailPlugin{name: "a"}
	b := &stopFailPlugin{name: "b"}
	c := &stopFailPlugin{name: "c", ok: true}
	for _, p := range []Plugin{a, b, c} {
		if err := l.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	err := l.Shutdown()
	if err == nil {
		t.Fatal("no aggregated error")
	}
	for _, p := range []*stopFailPlugin{a, b, c} {
		if !p.stopped {
			t.Errorf("%s not stopped", p.name)
		}
	}
	msg := err.Error()
	for _, want := range []string{"stopping a", "stopping b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, "stopping c") {
		t.Errorf("clean plugin reported an error: %q", msg)
	}
}

type stopFailPlugin struct {
	name    string
	ok      bool
	stopped bool
}

func (p *stopFailPlugin) Name() string             { return p.name }
func (p *stopFailPlugin) Start(ctx *Context) error { return nil }
func (p *stopFailPlugin) Stop() error {
	p.stopped = true
	if p.ok {
		return nil
	}
	return errTest(p.name)
}

type errTest string

func (e errTest) Error() string { return "stop failed: " + string(e) }

// TestFirstSubscriberChurn subscribes, cancels and re-subscribes a
// topic's only subscriber while publishers run, and now and then a
// second one, whose Cancel hands the survivor its own one-element
// snapshot back. Every live subscription sees each publisher's events in
// strictly increasing order, and a cancelled one's channel closes.
func TestFirstSubscriberChurn(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(8))
	top := NewSwitchboard().GetTopic("churn")
	const publishers, churns, depth = 3, 2000, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				top.Publish(Event{T: float64(i), Value: p})
			}
		}(p)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	// inOrder checks ev against the last T seen from its publisher
	inOrder := func(ev Event, last *[publishers]float64) {
		t.Helper()
		p := ev.Value.(int)
		if ev.T <= last[p] {
			t.Fatalf("publisher %d: T %v after %v", p, ev.T, last[p])
		}
		last[p] = ev.T
	}
	// read takes n events from a live subscription
	read := func(s *Subscription, last *[publishers]float64, n int) {
		t.Helper()
		for ; n > 0; n-- {
			select {
			case ev, open := <-s.C:
				if !open {
					t.Fatal("live subscription closed")
				}
				inOrder(ev, last)
			case <-time.After(5 * time.Second):
				t.Fatal("live subscription receives nothing")
			}
		}
	}
	// cancel cancels s and drains it until its channel closes
	cancel := func(s *Subscription, last *[publishers]float64) {
		t.Helper()
		s.Cancel()
		timeout := time.After(5 * time.Second)
		for {
			select {
			case ev, open := <-s.C:
				if !open {
					return
				}
				inOrder(ev, last)
			case <-timeout:
				t.Fatal("cancelled subscription's channel never closed")
			}
		}
	}
	for i := 0; i < churns; i++ {
		var la, lb [publishers]float64
		a := top.Subscribe(depth)
		read(a, &la, 3)
		if i%4 == 3 {
			b := top.Subscribe(depth)
			read(b, &lb, 2)
			cancel(a, &la)
			a, la = b, lb         // b is the only subscriber again
			read(a, &la, 3*depth) // more than it held before a left
		}
		cancel(a, &la)
	}
}

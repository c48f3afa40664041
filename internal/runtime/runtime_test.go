package runtime

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestTopicLatest(t *testing.T) {
	sb := NewSwitchboard()
	top := sb.GetTopic("x")
	if _, ok := top.Latest(); ok {
		t.Error("empty topic reported a value")
	}
	top.Publish(Event{T: 1, Value: "a"})
	top.Publish(Event{T: 2, Value: "b"})
	ev, ok := top.Latest()
	if !ok || ev.Value != "b" || ev.T != 2 {
		t.Errorf("latest = %+v", ev)
	}
	if top.Seq() != 2 {
		t.Errorf("seq = %d", top.Seq())
	}
}

func TestTopicIdentity(t *testing.T) {
	sb := NewSwitchboard()
	if sb.GetTopic("a") != sb.GetTopic("a") {
		t.Error("topic not singleton")
	}
	if sb.GetTopic("a") == sb.GetTopic("b") {
		t.Error("distinct names share a topic")
	}
	if len(sb.Topics()) != 2 {
		t.Errorf("topics = %v", sb.Topics())
	}
}

// Topics past the inline count are allocated on their own: every
// *Topic handed out stays the one GetTopic returns for its name, and
// Topics lists them in creation order.
func TestTopicsPastInlineStayPut(t *testing.T) {
	sb := NewSwitchboard()
	var names []string
	var tops []*Topic
	for i := 0; i < inlineTopics+3; i++ {
		names = append(names, fmt.Sprint("t", i))
		tops = append(tops, sb.GetTopic(names[i]))
		tops[i].Publish(Event{T: float64(i)})
	}
	for i, n := range names {
		if sb.GetTopic(n) != tops[i] {
			t.Fatalf("topic %q moved", n)
		}
		if ev, _ := tops[i].Latest(); ev.T != float64(i) {
			t.Fatalf("topic %q latest T = %v, want %d", n, ev.T, i)
		}
	}
	if got := sb.Topics(); !slices.Equal(got, names) {
		t.Fatalf("topics = %v, want %v", got, names)
	}
}

func TestSynchronousReadSeesEveryValue(t *testing.T) {
	sb := NewSwitchboard()
	top := sb.GetTopic("x")
	sub := top.Subscribe(16)
	for i := 0; i < 10; i++ {
		top.Publish(Event{T: float64(i), Value: i})
	}
	for i := 0; i < 10; i++ {
		ev := <-sub.C
		if ev.Value != i {
			t.Fatalf("event %d = %v", i, ev.Value)
		}
	}
	sub.Cancel()
	if _, open := <-sub.C; open {
		t.Error("cancelled channel still open")
	}
}

func TestSlowSubscriberDropsOldest(t *testing.T) {
	sb := NewSwitchboard()
	top := sb.GetTopic("x")
	sub := top.Subscribe(2)
	for i := 0; i < 5; i++ {
		top.Publish(Event{Value: i})
	}
	// buffer of 2: the two newest should be deliverable
	got := []int{(<-sub.C).Value.(int), (<-sub.C).Value.(int)}
	if got[1] != 4 {
		t.Errorf("newest event lost: %v", got)
	}
}

func TestPublishConcurrency(t *testing.T) {
	sb := NewSwitchboard()
	top := sb.GetTopic("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				top.Publish(Event{T: float64(i), Value: w})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			top.Latest()
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader starved")
	}
	if top.Seq() != 1600 {
		t.Errorf("seq = %d", top.Seq())
	}
}

func TestPhonebook(t *testing.T) {
	pb := &Phonebook{}
	if err := pb.Register("clock", 42); err != nil {
		t.Fatal(err)
	}
	if err := pb.Register("clock", 43); err == nil {
		t.Error("duplicate registration accepted")
	}
	v, ok := pb.Lookup("clock")
	if !ok || v != 42 {
		t.Errorf("lookup = %v %v", v, ok)
	}
	// past the inline entries the list grows; every service stays found
	for i, name := range []string{"a", "b", "c"} {
		if err := pb.Register(name, i); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"clock", "a", "b", "c"} {
		if v, ok := pb.Lookup(name); !ok || v != [...]int{42, 0, 1, 2}[i] {
			t.Errorf("lookup %q = %v %v", name, v, ok)
		}
	}
	if err := pb.Register("c", 9); err == nil {
		t.Error("duplicate registration past the inline entries accepted")
	}
	if _, ok := pb.Lookup("nope"); ok {
		t.Error("phantom service")
	}
}

type fakePlugin struct {
	name    string
	started bool
	stopped bool
	failure error
	order   *[]string
}

func (f *fakePlugin) Name() string { return f.name }
func (f *fakePlugin) Start(ctx *Context) error {
	f.started = true
	if f.order != nil {
		*f.order = append(*f.order, "start:"+f.name)
	}
	return f.failure
}
func (f *fakePlugin) Stop() error {
	f.stopped = true
	if f.order != nil {
		*f.order = append(*f.order, "stop:"+f.name)
	}
	return nil
}

func TestLoaderLifecycle(t *testing.T) {
	var order []string
	l := NewLoader()
	a := &fakePlugin{name: "a", order: &order}
	b := &fakePlugin{name: "b", order: &order}
	if err := l.Load(a); err != nil {
		t.Fatal(err)
	}
	if err := l.Load(b); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:a", "start:b", "stop:b", "stop:a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestLoaderSharedContext(t *testing.T) {
	l := NewLoader()
	if l.Context().Switchboard == nil || l.Context().Phonebook == nil {
		t.Fatal("empty context")
	}
}

package netsim

import (
	"errors"
	"io"
	"testing"

	"illixr/internal/faults"
)

func TestLinkDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		a := NewLink(p, 7)
		b := NewLink(p, 7)
		for i := 0; i < 1000; i++ {
			sendT := float64(i) * 0.002
			if got, want := a.Arrive(sendT), b.Arrive(sendT); got != want {
				t.Fatalf("%s msg %d: %v != %v", p.Name, i, got, want)
			}
		}
		if a.Sent() != 1000 || a.Lost() != b.Lost() {
			t.Fatalf("%s counters diverge", p.Name)
		}
	}
}

func TestLinkSeedChangesDelays(t *testing.T) {
	p := DefaultProfile() // wifi: has jitter
	a, b := NewLink(p, 1), NewLink(p, 2)
	same := true
	for i := 0; i < 100; i++ {
		if a.Arrive(float64(i)*0.01) != b.Arrive(float64(i)*0.01) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical delay sequences")
	}
}

func TestLinkFIFO(t *testing.T) {
	p := Profile{Name: "t", LatencyMs: 5, JitterMs: 20, LossPct: 10, RetransMs: 50}
	l := NewLink(p, 3)
	prev := -1.0
	for i := 0; i < 5000; i++ {
		arr := l.Arrive(float64(i) * 0.001)
		if arr < prev {
			t.Fatalf("msg %d reordered: %v < %v", i, arr, prev)
		}
		prev = arr
	}
	if l.Lost() == 0 {
		t.Fatal("10%% loss profile lost nothing in 5000 messages")
	}
}

func TestLinkDelayBounds(t *testing.T) {
	p := Profile{Name: "t", LatencyMs: 5, JitterMs: 2, LossPct: 0}
	l := NewLink(p, 9)
	for i := 0; i < 100; i++ {
		sendT := float64(i)
		arr := l.Arrive(sendT)
		d := (arr - sendT) * 1000
		if d < p.LatencyMs || d > p.LatencyMs+p.JitterMs {
			t.Fatalf("delay %vms outside [%v, %v]", d, p.LatencyMs, p.LatencyMs+p.JitterMs)
		}
	}
}

func TestLinkOutage(t *testing.T) {
	p := Profile{Name: "t", LatencyMs: 1, RetransMs: 40}
	l := NewLink(p, 5)
	l.SetOutages([]faults.Window{{Start: 1.0, End: 1.5}})

	before := l.Arrive(0.5)
	if before > 0.6 {
		t.Fatalf("pre-outage message delayed: %v", before)
	}
	during := l.Arrive(1.2)
	// dead link: delivery waits for the window end plus the retrans penalty
	want := 1.5 + (p.LatencyMs+p.RetransMs)/1000
	if during != want {
		t.Fatalf("outage arrival %v, want %v", during, want)
	}
	if l.Lost() != 1 {
		t.Fatalf("lost = %d", l.Lost())
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range Profiles() {
		got, ok := ProfileByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("lookup %s failed", p.Name)
		}
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile resolved")
	}
}

func TestConnFailAfter(t *testing.T) {
	client, server := Pipe()
	defer client.Close()
	defer server.Close()

	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	client.FailAfter(64)
	msg := make([]byte, 32)
	var failed bool
	for i := 0; i < 10; i++ {
		if _, err := client.Write(msg); err != nil {
			if !errors.Is(err, errInjectedLinkFailure) {
				t.Fatalf("wrong failure: %v", err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("link never failed after budget")
	}
	// the conn is severed, not just erroring: the peer sees EOF
	if _, err := client.Write(msg); !errors.Is(err, errInjectedLinkFailure) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("post-failure write: %v", err)
	}
}

func TestConnCounters(t *testing.T) {
	client, server := Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 16)
		if _, err := io.ReadFull(server, buf); err != nil {
			t.Errorf("read: %v", err)
		}
	}()
	if _, err := client.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	<-done
	if client.BytesWritten() != 16 || server.BytesRead() != 16 {
		t.Fatalf("counters: wrote %d read %d", client.BytesWritten(), server.BytesRead())
	}
}

// BytesRead returns the total bytes read.
func (c *Conn) BytesRead() int64 { return c.read.Load() }

// BytesWritten returns the total bytes successfully written.
func (c *Conn) BytesWritten() int64 { return c.wrote.Load() }

// Sent returns the number of messages pushed through the link.
func (l *Link) Sent() uint64 { return l.sent }

package session

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// byeAndAnswer says Bye on a live session and reads up to the server's
// answering Bye, after which the connection is waiting for a Hello.
func byeAndAnswer(t *testing.T, r *wire.Reader, w *wire.Writer) {
	t.Helper()
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeBye, Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("no answering Bye: %v", err)
		}
		if f.Type == wire.TypeBye {
			if b, _ := wire.DecodeBye(f.Payload); b.RetryAfterMs != 0 {
				t.Fatalf("answered with %+v, want a plain Bye", b)
			}
			return
		}
	}
}

// hello sends a Hello on a waiting (or fresh) connection and returns the
// server's answer.
func hello(t *testing.T, r *wire.Reader, w *wire.Writer) wire.Frame {
	t.Helper()
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "kept"})}); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("answer to hello: %v", err)
	}
	return f
}

// A connection whose session ended on the peer's Bye waits for the next
// Hello outside the session table: Len(), sessions_active and the handler
// do not see it, MaxSessions stays exact while it waits, and its next
// Hello is admitted (or refused) like an accepted connection's.
func TestKeptConnWaitsOutsideTheTable(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newCollect()
	srv := NewServer(Config{Metrics: reg, MaxSessions: 1, IdleTimeout: -1}, h)
	defer srv.Shutdown(context.Background())
	gauge := func() float64 { return reg.Snapshot().Gauges["illixr_netxr_sessions_active"] }
	total := func() uint64 { return reg.Snapshot().Counters["illixr_netxr_sessions_total"] }

	c1, s1 := net.Pipe()
	defer c1.Close()
	if srv.HandleConn(s1) == nil {
		t.Fatal("conn refused")
	}
	r1, w1, wel1 := clientHandshake(t, c1)
	byeAndAnswer(t, r1, w1)
	waitFor(t, func() bool { return h.endedCount() == 1 })
	if srv.Len() != 0 || gauge() != 0 || total() != 1 {
		t.Fatalf("a waiting conn counted: Len %d, sessions_active %v, sessions_total %d", srv.Len(), gauge(), total())
	}

	// the waiting conn holds no slot: a new conn takes the only one, and
	// the waiting conn's Hello is then refused as the table is full
	c2, s2 := net.Pipe()
	defer c2.Close()
	if srv.HandleConn(s2) == nil {
		t.Fatal("a waiting conn took the only session slot")
	}
	r2, w2, _ := clientHandshake(t, c2)
	if f := hello(t, r1, w1); f.Type != wire.TypeBye {
		t.Fatalf("Hello on a full server answered %v, want the capacity Bye", f.Type)
	}
	if _, err := r1.ReadFrame(); err == nil {
		t.Fatal("the refused conn stayed open")
	}
	if srv.Len() != 1 || total() != 2 {
		t.Fatalf("after the refusal: Len %d, sessions_total %d, want 1 and 2", srv.Len(), total())
	}

	// once the slot is free, a kept conn's Hello opens a new session on it
	byeAndAnswer(t, r2, w2)
	waitFor(t, func() bool { return srv.Len() == 0 })
	f := hello(t, r2, w2)
	if f.Type != wire.TypeWelcome {
		t.Fatalf("Hello on a kept conn answered %v, want welcome", f.Type)
	}
	if wel, _ := wire.DecodeWelcome(f.Payload); wel.Session == wel1.Session || srv.Len() != 1 {
		t.Fatalf("second session on a kept conn: %+v, Len %d", wel, srv.Len())
	}
	h.mu.Lock()
	started := len(h.started)
	h.mu.Unlock()
	if started != 3 {
		t.Fatalf("SessionStart ran %d times for 3 admitted sessions", started)
	}

	// Shutdown drains the live session and closes the waiting conn too
	byeAndAnswer(t, r2, w2)
	waitFor(t, func() bool { return h.endedCount() == 3 })
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadFrame(); err == nil {
		t.Fatal("Shutdown left a waiting conn open")
	}
	if h.endedCount() != 3 {
		t.Fatalf("SessionEnd ran %d times for 3 sessions", h.endedCount())
	}
}

// A kept connection's wait for the next Hello is bounded by IdleTimeout,
// and a Hello racing that bound is either admitted or finds the
// connection closed — never a hang, and never a SessionEnd without its
// SessionStart.
func TestKeptConnHelloRacesIdleTimeout(t *testing.T) {
	const idle = 20 * time.Millisecond
	h := newCollect()
	srv := NewServer(Config{IdleTimeout: idle}, h)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		client, server := net.Pipe()
		if srv.HandleConn(server) == nil {
			t.Fatal("conn refused")
		}
		r, w, _ := clientHandshake(t, client)
		byeAndAnswer(t, r, w)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer client.Close()
			time.Sleep(idle - 4*time.Millisecond + time.Duration(i)*time.Millisecond)
			err := w.WriteFrame(wire.Frame{Type: wire.TypeHello,
				Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "late"})})
			if err != nil {
				return // the idle bound closed the conn first
			}
			f, err := r.ReadFrame()
			if err == nil && f.Type != wire.TypeWelcome {
				t.Errorf("a late Hello answered %v", f.Type)
			}
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.started) != len(h.ended) || srv.Len() != 0 {
		t.Fatalf("%d sessions started, %d ended, %d live", len(h.started), len(h.ended), srv.Len())
	}
}

// endBlocker holds every SessionEnd until release is closed.
type endBlocker struct {
	allocNop
	release chan struct{}
}

func (h endBlocker) SessionEnd(*Session, error) { <-h.release }

// The next Hello on a kept connection does not wait for the previous
// session's SessionEnd.
func TestKeptConnHelloDoesNotWaitForSessionEnd(t *testing.T) {
	h := endBlocker{release: make(chan struct{})}
	srv := NewServer(Config{IdleTimeout: -1}, h)
	client, server := net.Pipe()
	defer client.Close()
	if srv.HandleConn(server) == nil {
		t.Fatal("conn refused")
	}
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	r, w, _ := clientHandshake(t, client)
	byeAndAnswer(t, r, w)
	if f := hello(t, r, w); f.Type != wire.TypeWelcome {
		t.Fatalf("Hello behind a pending SessionEnd answered %v, want welcome", f.Type)
	}
	close(h.release)
	_ = client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

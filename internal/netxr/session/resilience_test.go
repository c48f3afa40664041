package session

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// IsRetryable reports whether a send/admission failure is transient: the
// caller should retry (after backoff) instead of tearing the session down.
func IsRetryable(err error) bool {
	if errors.Is(err, errBackpressure) {
		return true
	}
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// TestDrainIdempotent is the regression test for the double-drain bug
// class: a second Drain (or a Close racing the drain deadline) must not
// panic and must not re-arm a second Bye.
func TestDrainIdempotent(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	r, _, _ := clientHandshake(t, client)

	sess.drain("first")
	sess.drain("second")          // idempotent: first reason wins
	sess.drainRetry("third", 999) // and no late retry hint either

	byes := 0
	var got wire.Bye
	for {
		f, err := r.ReadFrame()
		if err != nil {
			break
		}
		if f.Type == wire.TypeBye {
			byes++
			got, _ = wire.DecodeBye(f.Payload)
		}
	}
	if byes != 1 {
		t.Fatalf("byes = %d, want exactly 1", byes)
	}
	if got.Reason != "first" || got.RetryAfterMs != 0 {
		t.Fatalf("bye = %+v, want the first drain's reason and no hint", got)
	}

	// after the session is fully down, drain and close again: both must
	// be no-ops, not panics or double-sends
	waitFor(t, func() bool { return srv.Len() == 0 })
	sess.drain("late")
	sess.close(errors.New("late close"))
	sess.drain("later still")
}

// TestCloseThenDrainIdempotent covers the other ordering: a session
// force-closed first (the drain-deadline path) ignores later drains.
func TestCloseThenDrainIdempotent(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	clientHandshake(t, client)

	sess.close(errors.New("deadline"))
	sess.drain("after close") // must not panic or send anything
	sess.close(nil)           // double close: no-op

	waitFor(t, func() bool { return srv.Len() == 0 })
	if h.endedCount() != 1 {
		t.Fatalf("SessionEnd ran %d times, want 1", h.endedCount())
	}
}

// TestBackpressureTypedError verifies satellite semantics: a full
// reliable queue returns a typed, retryable *backpressureError — not a
// silent drop — and bumps illixr_netxr_backpressure_total.
func TestBackpressureTypedError(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newCollect()
	srv := NewServer(Config{QueueLen: 4, Metrics: reg}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	clientHandshake(t, client)

	payload := wire.AppendPing(nil, wire.Ping{})
	var last error
	for i := 0; i < 16; i++ {
		if err := sess.Send(wire.Frame{Type: wire.TypeQoE, Payload: payload}, Reliable); err != nil {
			last = err
			break
		}
	}
	if last == nil {
		t.Fatal("reliable queue never pushed back")
	}
	var bp *backpressureError
	if !errors.As(last, &bp) {
		t.Fatalf("err = %T %v, want *BackpressureError", last, last)
	}
	if !errors.Is(last, errBackpressure) {
		t.Fatal("BackpressureError does not unwrap to ErrBackpressure")
	}
	if !IsRetryable(last) {
		t.Fatal("BackpressureError not retryable")
	}
	if bp.Session != sess.ID() || bp.Queued == 0 {
		t.Fatalf("context missing: %+v", bp)
	}
	ctr := reg.Counter(telemetry.MetricName("netxr", "backpressure_total"))
	if ctr.Value() == 0 {
		t.Fatal("illixr_netxr_backpressure_total not incremented")
	}
}

// TestServerFullRetryAfter: a capacity refusal is admission-control
// push-back — the Bye carries a machine-readable Retry-After hint.
func TestServerFullRetryAfter(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{MaxSessions: 1}, h)
	defer srv.Shutdown(context.Background())

	c1, s1 := net.Pipe()
	defer c1.Close()
	srv.HandleConn(s1)
	clientHandshake(t, c1)

	c2, s2 := net.Pipe()
	defer c2.Close()
	srv.HandleConn(s2)
	f, err := wire.NewReader(c2).ReadFrame()
	if err != nil || f.Type != wire.TypeBye {
		t.Fatalf("refusal = %v err %v, want bye", f.Type, err)
	}
	bye, err := wire.DecodeBye(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if bye.RetryAfterMs != uint32(retryAfter.Milliseconds()) || !bye.Retryable() {
		t.Fatalf("bye = %+v, want retryable with the %v hint", bye, retryAfter)
	}
}

// admitFunc adapts a function to the Admission interface.
type admitFunc func(sessionID uint64, h wire.Hello) (wire.Welcome, error)

func (f admitFunc) Admit(id uint64, h wire.Hello) (wire.Welcome, error) { return f(id, h) }

// TestAdmissionResumeWelcome: an Admission hook's resume snapshot rides
// the Welcome, with the transport owning Proto and Session.
func TestAdmissionResumeWelcome(t *testing.T) {
	reg := telemetry.NewRegistry()
	adm := admitFunc(func(id uint64, h wire.Hello) (wire.Welcome, error) {
		if h.ResumeToken != 77 {
			t.Errorf("hello token = %d, want 77", h.ResumeToken)
		}
		return wire.Welcome{Proto: 99, Session: 99, ResumeToken: 77, Resumed: true, LastAckSeq: 640, PoseEpoch: 3}, nil
	})
	srv := NewServer(Config{Admission: adm, Metrics: reg}, newCollect())
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)

	r, w := wire.NewReader(client), wire.NewWriter(client)
	hello := wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "test", ResumeToken: 77, LastSeq: 512})
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("reply = %v err %v, want welcome", f.Type, err)
	}
	wel, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if wel.Proto != wire.Version || wel.Session != sess.ID() {
		t.Fatalf("transport fields not overwritten: %+v", wel)
	}
	if !wel.Resumed || wel.ResumeToken != 77 || wel.LastAckSeq != 640 || wel.PoseEpoch != 3 {
		t.Fatalf("resume snapshot lost: %+v", wel)
	}
	if reg.Counter(telemetry.MetricName("netxr", "sessions_resumed_total")).Value() != 1 {
		t.Fatal("resume not counted")
	}
}

// TestAdmissionRefusalRetryAfter: an *AdmissionError surfaces to the
// client as a retryable Bye carrying the hint.
func TestAdmissionRefusalRetryAfter(t *testing.T) {
	adm := admitFunc(func(id uint64, h wire.Hello) (wire.Welcome, error) {
		return wire.Welcome{}, &AdmissionError{Reason: "resume burst", RetryAfter: 300 * time.Millisecond}
	})
	srv := NewServer(Config{Admission: adm}, newCollect())
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	srv.HandleConn(server)

	r, w := wire.NewReader(client), wire.NewWriter(client)
	hello := wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "test"})
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.TypeBye {
		t.Fatalf("reply = %v err %v, want bye", f.Type, err)
	}
	bye, err := wire.DecodeBye(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if bye.RetryAfterMs != 300 || !bye.Retryable() {
		t.Fatalf("bye = %+v, want retryable 300ms refusal", bye)
	}
}

// TestAbortSeversSessions: Abort is the replica crash primitive — every
// session dies with no Bye, exactly like a killed process.
func TestAbortSeversSessions(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)

	client, server := net.Pipe()
	defer client.Close()
	srv.HandleConn(server)
	r, _, _ := clientHandshake(t, client)

	srv.Abort(nil)
	if srv.Len() != 0 {
		t.Fatalf("sessions = %d after abort, want 0", srv.Len())
	}
	// the client must see a severed stream, not a graceful Bye
	for {
		f, err := r.ReadFrame()
		if err != nil {
			break
		}
		if f.Type == wire.TypeBye {
			t.Fatal("abort sent a Bye; crashes must be silent")
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, err := range h.ended {
		if !errors.Is(err, errAborted) {
			t.Fatalf("end err = %v, want ErrAborted", err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

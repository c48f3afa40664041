package bridge

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a, b := NewBackoff(7), NewBackoff(7)
	other := NewBackoff(8)
	var prevBase time.Duration
	diverged := false
	for i := 0; i < 10; i++ {
		da, db := a.Delay(i), b.Delay(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da != other.Delay(i) {
			diverged = true
		}
		if da <= 0 || da > 2*time.Second {
			t.Fatalf("attempt %d: delay %v outside (0, cap]", i, da)
		}
		// the un-jittered floor grows monotonically up to the cap
		base := 50 * time.Millisecond << uint(i)
		if base > 2*time.Second {
			base = 2 * time.Second
		}
		if base < prevBase {
			t.Fatal("backoff floor shrank")
		}
		prevBase = base
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffNoJitterIsPureExponential(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("attempt %d: delay = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

// flakyAdmission refuses the first n handshakes with a Retry-After hint.
type flakyAdmission struct {
	mu      sync.Mutex
	refuse  int
	retry   time.Duration
	helloes []wire.Hello
}

func (a *flakyAdmission) Admit(id uint64, h wire.Hello) (wire.Welcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.helloes = append(a.helloes, h)
	if a.refuse > 0 {
		a.refuse--
		return wire.Welcome{}, &session.AdmissionError{Reason: "not yet", RetryAfter: a.retry}
	}
	return wire.Welcome{ResumeToken: 42, Resumed: h.ResumeToken != 0, PoseEpoch: 1}, nil
}

type nopHandler struct{}

func (nopHandler) SessionStart(*session.Session) error             { return nil }
func (nopHandler) SessionFrame(*session.Session, wire.Frame) error { return nil }
func (nopHandler) SessionEnd(*session.Session, error)              {}

func TestRedialerBacksOffThroughRefusals(t *testing.T) {
	adm := &flakyAdmission{refuse: 2, retry: 300 * time.Millisecond}
	srv := session.NewServer(session.Config{Admission: adm, IdleTimeout: -1}, nopHandler{})
	defer srv.Shutdown(context.Background())

	var slept []time.Duration
	r := &Redialer{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			if srv.HandleConn(s) == nil {
				_ = c.Close()
				return nil, errors.New("refused")
			}
			return c, nil
		},
		Hello:   wire.Hello{App: "xr", Seed: 5},
		Backoff: &Backoff{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Factor: 2},
		Sleep:   func(d time.Duration) { slept = append(slept, d) },
	}
	cl, err := r.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if r.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", r.Attempts())
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(slept))
	}
	// the server's 300ms Retry-After hint floors the early backoff delays
	for i, d := range slept {
		if d < 300*time.Millisecond {
			t.Fatalf("sleep %d = %v, below the server's Retry-After floor", i, d)
		}
	}
	if w := cl.Welcome(); w.ResumeToken != 42 {
		t.Fatalf("welcome = %+v", w)
	}
}

func TestRedialerResumesWithStoredToken(t *testing.T) {
	adm := &flakyAdmission{}
	srv := session.NewServer(session.Config{Admission: adm, IdleTimeout: -1}, nopHandler{})
	defer srv.Shutdown(context.Background())

	r := &Redialer{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			if srv.HandleConn(s) == nil {
				_ = c.Close()
				return nil, errors.New("refused")
			}
			return c, nil
		},
		Hello: wire.Hello{App: "xr"},
		Sleep: func(time.Duration) {},
	}
	c1, err := r.Connect()
	if err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()

	c2, err := r.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Welcome().Resumed {
		t.Fatalf("second welcome = %+v, want resumed", c2.Welcome())
	}
	adm.mu.Lock()
	defer adm.mu.Unlock()
	if len(adm.helloes) != 2 {
		t.Fatalf("handshakes = %d, want 2", len(adm.helloes))
	}
	if adm.helloes[0].ResumeToken != 0 {
		t.Fatal("first hello carried a token before any welcome")
	}
	if adm.helloes[1].ResumeToken != 42 {
		t.Fatalf("resume hello token = %d, want 42", adm.helloes[1].ResumeToken)
	}
}

func TestRedialerTerminalRefusalFailsFast(t *testing.T) {
	adm := &flakyAdmission{refuse: 100, retry: 0} // no hint: terminal
	srv := session.NewServer(session.Config{Admission: adm, IdleTimeout: -1}, nopHandler{})
	defer srv.Shutdown(context.Background())

	r := &Redialer{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			if srv.HandleConn(s) == nil {
				_ = c.Close()
				return nil, errors.New("refused")
			}
			return c, nil
		},
		Hello: wire.Hello{App: "xr"},
		Sleep: func(time.Duration) {},
	}
	_, err := r.Connect()
	var re *refusedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RefusedError", err)
	}
	if re.Retryable() {
		t.Fatal("hint-less refusal marked retryable")
	}
	if r.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1 (fail fast)", r.Attempts())
	}
}

func TestRedialerGivesUpAfterMaxAttempts(t *testing.T) {
	r := &Redialer{
		Dial:  func() (net.Conn, error) { return nil, fmt.Errorf("no route") },
		Hello: wire.Hello{App: "xr"},
		Sleep: func(time.Duration) {},
	}
	_, err := r.Connect()
	if !errors.Is(err, errGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp", err)
	}
	if r.Attempts() != maxAttempts {
		t.Fatalf("attempts = %d, want %d", r.Attempts(), maxAttempts)
	}
}

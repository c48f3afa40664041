package bridge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// Backoff is a deterministic jittered exponential backoff policy:
// attempt n waits Base·Factor^n capped at Cap, with a Jitter fraction
// of that delay replaced by a seeded uniform draw. Seeding makes the
// whole reconnect schedule reproducible — the chaos bench replays the
// exact same recovery storm for a given seed — while still decorrelating
// clients from each other (different seeds, different phases).
type Backoff struct {
	// Base is the first delay (0 = 50ms).
	Base time.Duration
	// Cap bounds the grown delay (0 = 2s).
	Cap time.Duration
	// Factor is the per-attempt growth (0 = 2).
	Factor float64
	// Jitter in (0,1] is the fraction of each delay drawn uniformly at
	// random; 0 = default (0.5), negative disables jitter entirely.
	Jitter float64

	state uint64
}

// NewBackoff returns the default policy seeded for deterministic jitter.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{state: uint64(seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03}
}

func (b *Backoff) defaults() (base, cap time.Duration, factor, jitter float64) {
	base, cap, factor, jitter = b.Base, b.Cap, b.Factor, b.Jitter
	if base == 0 {
		base = 50 * time.Millisecond
	}
	if cap == 0 {
		cap = 2 * time.Second
	}
	if factor == 0 {
		factor = 2
	}
	switch {
	case jitter == 0:
		jitter = 0.5
	case jitter < 0:
		jitter = 0
	case jitter > 1:
		jitter = 1
	}
	return
}

// Delay returns the wait before reconnect attempt n (0-based). Calls
// advance the jitter stream, so a fixed seed yields a fixed schedule.
func (b *Backoff) Delay(attempt int) time.Duration {
	base, cap, factor, jitter := b.defaults()
	d := float64(base)
	for i := 0; i < attempt && d < float64(cap); i++ {
		d *= factor
	}
	if d > float64(cap) {
		d = float64(cap)
	}
	if jitter > 0 {
		// equal-jitter style: keep (1-jitter) of the delay, draw the rest
		u := float64(splitmix64(&b.state)>>11) / float64(1<<53)
		d = d*(1-jitter) + d*jitter*u
	}
	return time.Duration(d)
}

// splitmix64 — the repo-wide deterministic generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// errGaveUp wraps the last failure when a Redialer exhausts maxAttempts.
var errGaveUp = errors.New("bridge: reconnect attempts exhausted")

// maxAttempts bounds one Connect call.
const maxAttempts = 8

// Redialer dials (and redials) the split's server side with resume: the
// first Connect performs a fresh handshake; after the session dies —
// drained replica, crashed replica, dropped link — Connect again and it
// presents the stored resume token and last-seen downlink seq, backing
// off between attempts. Refusals carrying a Retry-After hint (fleet
// admission push-back) wait at least that long; non-retryable refusals
// (bad token, protocol error) fail immediately.
type Redialer struct {
	// Dial opens a transport connection (to the gateway or a server).
	// Required.
	Dial func() (net.Conn, error)
	// Hello is the handshake template; resume fields are managed by the
	// redialer itself.
	Hello wire.Hello
	// Tracer seeds each dialed client's span collector; may be nil.
	Tracer *telemetry.SpanCollector
	// Window, when set, follows the session across reconnects: every
	// dialed client pushes its uplink frames into it, and after a
	// Resumed Welcome the unacked gap [last_ack_seq+1, head] is
	// retransmitted before the client is returned — the server sees a
	// hole-free uplink stream even through a crash+resume (ROADMAP
	// item 1). May be nil (no retransmission, the pre-window behavior).
	Window *SendWindow
	// Backoff paces reconnect attempts; nil = NewBackoff(Hello.Seed).
	Backoff *Backoff
	// Sleep is the wait primitive, injectable for tests and virtual-time
	// benches; nil = time.Sleep.
	Sleep func(time.Duration)

	attempts int // total dial attempts across the redialer's life
	last     *Client
	welcome  wire.Welcome
	haveW    bool
}

// Attempts returns the total dial attempts made so far.
func (r *Redialer) Attempts() int { return r.attempts }

// Connect establishes (or re-establishes) the session, blocking through
// backoff waits. Not safe for concurrent use — the owner of the client
// drives reconnection from one goroutine.
func (r *Redialer) Connect() (*Client, error) {
	if r.Backoff == nil {
		r.Backoff = NewBackoff(r.Hello.Seed)
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}

	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			delay := r.Backoff.Delay(attempt - 1)
			// a server Retry-After hint is a floor, not a replacement: the
			// jittered exponential keeps clients decorrelated on top of it.
			if ra := retryAfter(lastErr); ra > delay {
				delay = ra
			}
			sleep(delay)
		}
		r.attempts++
		conn, err := r.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		hello := r.Hello
		if r.haveW {
			hello.ResumeToken = r.welcome.ResumeToken
			if r.last != nil {
				hello.LastSeq = r.last.lastRecvSeq()
			}
		}
		cl, err := DialWith(conn, hello, DialOptions{
			Tracer: r.Tracer, Window: r.Window,
		})
		if err == nil {
			if w := cl.Welcome(); w.Resumed && r.Window != nil {
				if _, _, rerr := r.Window.retransmitTo(cl, w.LastAckSeq); rerr != nil {
					// the fresh link died mid-retransmit: unacked frames stay
					// queued in the window, so the next attempt replays them
					_ = cl.Close()
					lastErr = rerr
					continue
				}
			}
			r.last, r.welcome, r.haveW = cl, cl.Welcome(), true
			return cl, nil
		}
		lastErr = err
		// a terminal refusal says so (refusedError without a Retry-After):
		// retrying cannot help
		var r interface{ Retryable() bool }
		if errors.As(err, &r) && !r.Retryable() {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w after %d attempts: %v", errGaveUp, maxAttempts, lastErr)
}

// retryAfter extracts a server Retry-After hint from a dial error.
func retryAfter(err error) time.Duration {
	var re *refusedError
	if errors.As(err, &re) {
		return time.Duration(re.Bye.RetryAfterMs) * time.Millisecond
	}
	return 0
}

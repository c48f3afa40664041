// Package netsim models the network between an XR client and an edge
// server deterministically: a seeded per-message delay process (latency +
// jitter + loss-as-retransmission) expressed in *virtual* session time,
// plus a net.Conn wrapper for driving the real session layer over
// net.Pipe in tests without real sockets.
//
// Determinism is the point (DESIGN.md §9): the delay of message i is a
// pure function of (profile, seed, i), and arrival times are computed in
// virtual time, so the network bench produces byte-identical results for
// a given seed — no wall clocks, no kernel scheduling, no real links.
// Loss on a reliable byte stream does not drop bytes; it manifests as a
// retransmission penalty (RetransMs) added to the delayed message and,
// because the stream is FIFO, to everything queued behind it — exactly
// the head-of-line blocking a TCP-like transport exhibits.
package netsim

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"illixr/internal/faults"
)

// Profile parameterizes one direction of a modelled link.
type Profile struct {
	Name      string  `json:"name"`
	LatencyMs float64 `json:"latency_ms"` // one-way propagation delay
	JitterMs  float64 `json:"jitter_ms"`  // uniform [0, JitterMs) added per message
	LossPct   float64 `json:"loss_pct"`   // chance a message needs a retransmission
	RetransMs float64 `json:"retrans_ms"` // head-of-line penalty per lost message
}

// RTTMs returns the nominal round-trip time of a symmetric link.
func (p Profile) RTTMs() float64 { return 2 * p.LatencyMs }

func (p Profile) String() string {
	return fmt.Sprintf("%s(lat=%.1fms jit=%.1fms loss=%.2f%%)", p.Name, p.LatencyMs, p.JitterMs, p.LossPct)
}

// Profiles returns the named sweep points of the network bench.
func Profiles() []Profile {
	return []Profile{
		{Name: "loopback", LatencyMs: 0.05, JitterMs: 0.01, LossPct: 0, RetransMs: 1},
		{Name: "lan", LatencyMs: 1, JitterMs: 0.2, LossPct: 0, RetransMs: 8},
		{Name: "wifi", LatencyMs: 5, JitterMs: 2, LossPct: 0.5, RetransMs: 30},
		{Name: "metro-edge", LatencyMs: 15, JitterMs: 4, LossPct: 0.5, RetransMs: 60},
		{Name: "regional", LatencyMs: 35, JitterMs: 8, LossPct: 1, RetransMs: 120},
	}
}

// DefaultProfile is the bench experiments' default: a good home Wi-Fi
// link to a nearby edge.
func DefaultProfile() Profile { return Profiles()[2] }

// ProfileByName looks a sweep profile up by name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// splitmix64 advances a 64-bit state and returns a mixed output — the
// same tiny deterministic generator internal/faults uses.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Link is one direction of a modelled connection: a deterministic
// delay process plus FIFO ordering. Arrive maps a virtual send time to a
// virtual arrival time; successive calls model successive messages, and
// arrivals never reorder (head-of-line blocking). Not safe for
// concurrent use — each direction has exactly one sender.
type Link struct {
	Profile Profile
	state   uint64
	lastArr float64 // arrival time of the previous message
	sent    uint64
	lost    uint64
	outages []faults.Window
}

// NewLink creates the delay process for one direction.
func NewLink(p Profile, seed int64) *Link {
	return &Link{Profile: p, state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1F83D9ABFB41BD6B}
}

// SetOutages installs link-fault windows (faults.LinkDrop): a message
// sent during [Start, End) stalls until the window ends and then pays the
// retransmission penalty — the link is dead, the transport retries.
func (l *Link) SetOutages(ws []faults.Window) { l.outages = ws }

// Lost returns how many of them drew a retransmission.
func (l *Link) Lost() uint64 { return l.lost }

// Arrive returns the virtual arrival time of a message sent at sendT.
func (l *Link) Arrive(sendT float64) float64 {
	l.sent++
	d := l.Profile.LatencyMs
	if l.Profile.JitterMs > 0 {
		u := float64(splitmix64(&l.state)>>11) / float64(1<<53)
		d += u * l.Profile.JitterMs
	}
	if l.Profile.LossPct > 0 {
		u := 100 * float64(splitmix64(&l.state)>>11) / float64(1<<53)
		if u < l.Profile.LossPct {
			d += l.Profile.RetransMs
			l.lost++
		}
	}
	for _, w := range l.outages {
		if sendT >= w.Start && sendT < w.End {
			// dead link: deliver after the outage plus a retransmission
			sendT = w.End
			d += l.Profile.RetransMs
			l.lost++
			break
		}
	}
	arr := sendT + d/1000
	if arr < l.lastArr {
		arr = l.lastArr // FIFO: no reordering on a stream
	}
	l.lastArr = arr
	return arr
}

// Conn wraps a net.Conn for the real (goroutine-driven) session layer:
// it counts bytes and can kill the link mid-stream after a byte budget
// (exercising dead-session supervision).
type Conn struct {
	net.Conn
	failAfter atomic.Int64 // bytes until forced failure; <0 = never
	wrote     atomic.Int64
	read      atomic.Int64
	mu        sync.Mutex
}

// errInjectedLinkFailure is returned by writes after the failure budget.
var errInjectedLinkFailure = fmt.Errorf("netsim: injected link failure")

// wrap decorates an existing conn (e.g. one end of net.Pipe).
func wrap(c net.Conn) *Conn {
	w := &Conn{Conn: c}
	w.failAfter.Store(-1)
	return w
}

// Pipe returns both ends of an in-memory connection wrapped for
// instrumentation, in (client, server) order.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return wrap(a), wrap(b)
}

// FailAfter arms an injected link failure after n more written bytes.
func (c *Conn) FailAfter(n int64) { c.failAfter.Store(n) }

// Write implements net.Conn with failure injection.
func (c *Conn) Write(p []byte) (int, error) {
	if budget := c.failAfter.Load(); budget >= 0 {
		if budget == 0 || c.failAfter.Add(-int64(len(p))) < 0 {
			_ = c.Conn.Close()
			return 0, errInjectedLinkFailure
		}
	}
	c.mu.Lock()
	n, err := c.Conn.Write(p)
	c.mu.Unlock()
	c.wrote.Add(int64(n))
	return n, err
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

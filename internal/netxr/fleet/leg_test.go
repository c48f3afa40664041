package fleet

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// scriptedReplica is a wire-level replica on loopback TCP. It welcomes
// every Hello on a connection, echoes each IMU sample as a pose, and
// answers the client's Bye with reply (nil: it stays silent), then waits
// for the next Hello on the same connection. closed gets one value per
// connection the gateway closed.
type scriptedReplica struct {
	ln       net.Listener
	reply    *wire.Bye
	accepted atomic.Int64
	closed   chan struct{}
	wg       sync.WaitGroup
}

func newScriptedReplica(t *testing.T, reply *wire.Bye) *scriptedReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sr := &scriptedReplica{ln: ln, reply: reply, closed: make(chan struct{}, 64)}
	var mu sync.Mutex
	var conns []net.Conn
	sr.wg.Add(1)
	go func() {
		defer sr.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sr.accepted.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			sr.wg.Add(1)
			go func() { defer sr.wg.Done(); sr.serve(c) }()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		sr.wg.Wait()
	})
	return sr
}

func (sr *scriptedReplica) serve(c net.Conn) {
	defer func() { sr.closed <- struct{}{} }()
	defer c.Close()
	r, w := wire.NewReader(c), wire.NewWriter(c)
	defer r.Release()
	defer w.Release()
	var session uint64
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeHello:
			session++
			err = w.WriteFrame(wire.Frame{Type: wire.TypeWelcome,
				Payload: wire.AppendWelcome(nil, wire.Welcome{Proto: wire.Version, Session: session})})
		case wire.TypeIMU:
			imu, _ := wire.DecodeIMU(f.Payload)
			err = w.WriteFrame(wire.Frame{Type: wire.TypePose, Payload: wire.AppendPose(nil, wire.Pose{T: imu.T})})
		case wire.TypeBye:
			if sr.reply != nil {
				err = w.WriteFrame(wire.Frame{Type: wire.TypeBye, Payload: wire.AppendBye(nil, *sr.reply)})
			}
		}
		if err != nil {
			return
		}
	}
}

// awaitClosed waits for the gateway to close one replica connection.
func (sr *scriptedReplica) awaitClosed(t *testing.T, why string) {
	t.Helper()
	select {
	case <-sr.closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("the gateway kept the replica leg after %s", why)
	}
}

// legGateway fronts one scripted replica with a gateway whose half-close
// waits at most halfClose for the replica's answer.
func legGateway(t *testing.T, sr *scriptedReplica, halfClose time.Duration) (*Gateway, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	coord := NewCoordinator(Config{TokenSeed: 1})
	coord.AddReplica(0, nil)
	g := &Gateway{Coord: coord, HandshakeTimeout: halfClose, Metrics: reg,
		Dial: func(int) (net.Conn, error) { return net.Dial("tcp", sr.ln.Addr().String()) }}
	t.Cleanup(func() { _ = g.Shutdown(context.Background()) })
	return g, reg
}

func (g *Gateway) parkedLegs(id int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.idle[id])
}

// legClient is one wire-level client of a gateway.
type legClient struct {
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

// closeCounter is the gateway's end of a client conn, counting its
// Close calls.
type closeCounter struct {
	net.Conn
	closes atomic.Int32
}

func (c *closeCounter) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

// pipeClient hands g the counted end of a fresh pipe and returns a
// wire-level client on the other end.
func pipeClient(t *testing.T, g *Gateway) (*legClient, *closeCounter) {
	t.Helper()
	c, s := net.Pipe()
	gw := &closeCounter{Conn: s}
	g.HandleConn(gw)
	lc := &legClient{conn: c, r: wire.NewReader(c), w: wire.NewWriter(c)}
	t.Cleanup(func() { _ = c.Close(); lc.r.Release(); lc.w.Release() })
	return lc, gw
}

// awaitRelayed waits for the relay of gw to return.
func (g *Gateway) awaitRelayed(t *testing.T, gw *closeCounter) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		_, live := g.conns[gw]
		g.mu.Unlock()
		if !live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the relay did not return")
		}
	}
}

// dialLeg opens a session through g: Hello, one IMU sample and its pose.
func dialLeg(t *testing.T, g *Gateway) *legClient {
	t.Helper()
	lc, _ := dialCountedLeg(t, g)
	return lc
}

// dialCountedLeg is dialLeg, also returning the gateway's counted end.
func dialCountedLeg(t *testing.T, g *Gateway) (*legClient, *closeCounter) {
	t.Helper()
	lc, gw := pipeClient(t, g)
	if err := lc.w.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "leg"})}); err != nil {
		t.Fatal(err)
	}
	if f, err := lc.r.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("admission answered %v (%v), want a welcome", f.Type, err)
	}
	if err := lc.w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, wireIMU(0.002))}); err != nil {
		t.Fatal(err)
	}
	if f, err := lc.r.ReadFrame(); err != nil || f.Type != wire.TypePose {
		t.Fatalf("downlink answered %v (%v), want a pose", f.Type, err)
	}
	return lc, gw
}

// end finishes the session: bye=false severs it, bye=true says Bye and
// reads to the end of the stream, returning the last Bye seen.
func (lc *legClient) end(t *testing.T, bye bool) (last wire.Bye) {
	t.Helper()
	if !bye {
		_ = lc.conn.Close()
		return last
	}
	if err := lc.w.WriteFrame(wire.Frame{Type: wire.TypeBye,
		Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := lc.r.ReadFrame()
		if err != nil {
			return last
		}
		if f.Type == wire.TypeBye {
			last, _ = wire.DecodeBye(f.Payload)
		}
	}
}

// A session that ends on both Byes parks its leg, and the next session
// on the replica takes it over: one accept, one reuse counted.
func TestGatewayParksLegAfterBothByes(t *testing.T) {
	sr := newScriptedReplica(t, &wire.Bye{Reason: "eof"})
	g, reg := legGateway(t, sr, 5*time.Second)
	if b := dialLeg(t, g).end(t, true); b.Reason != "eof" {
		t.Fatalf("the client got Bye %+v, want the replica's answer relayed", b)
	}
	if n := g.parkedLegs(0); n != 1 {
		t.Fatalf("%d legs parked after a clean end, want 1", n)
	}
	dialLeg(t, g).end(t, true)
	if n := sr.accepted.Load(); n != 1 {
		t.Errorf("the replica accepted %d connections for two sessions, want 1", n)
	}
	if n := reg.Snapshot().Counters["illixr_fleet_gateway_legs_reused_total"]; n != 1 {
		t.Errorf("legs_reused_total = %d, want 1", n)
	}
}

// Every other ending closes the leg instead of parking it: a sever (no
// Bye), a replica drain Bye answering the client's, and a replica that
// never answers within the half-close bound. None of them marks the
// replica Down, and the next session dials afresh.
func TestGatewayClosesLegOnOtherEndings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply *wire.Bye
		bye   bool
	}{
		{"sever", &wire.Bye{Reason: "eof"}, false},
		{"drain", &wire.Bye{Reason: "server shutdown", RetryAfterMs: 100}, true},
		{"timeout", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr := newScriptedReplica(t, tc.reply)
			g, _ := legGateway(t, sr, 100*time.Millisecond)
			b := dialLeg(t, g).end(t, tc.bye)
			if tc.name == "drain" && !b.Retryable() {
				t.Errorf("the client got Bye %+v, want the drain relayed", b)
			}
			sr.awaitClosed(t, tc.name)
			if n := g.parkedLegs(0); n != 0 {
				t.Fatalf("%d legs parked after a %s", n, tc.name)
			}
			if st := g.Coord.StatusOf(0); st != Up {
				t.Fatalf("replica %v after a %s, want up", st, tc.name)
			}
			dialLeg(t, g).end(t, false)
			if n := sr.accepted.Load(); n != 2 {
				t.Errorf("the replica accepted %d connections, want 2", n)
			}
		})
	}
}

// The relay closes the client conn exactly once however the session
// ends: parked after both Byes, severed, drained, timed out, refused at
// placement, or refused for a bad first frame.
func TestRelayClosesClientOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply *wire.Bye
		end   func(t *testing.T, g *Gateway) *closeCounter
	}{
		{"park", &wire.Bye{Reason: "eof"}, byeEnd(true)},
		{"sever", &wire.Bye{Reason: "eof"}, byeEnd(false)},
		{"drain", &wire.Bye{Reason: "server shutdown", RetryAfterMs: 100}, byeEnd(true)},
		{"timeout", nil, byeEnd(true)},
		{"no replica", nil, func(t *testing.T, g *Gateway) *closeCounter {
			g.Coord.setStatus(0, down)
			lc, gw := pipeClient(t, g)
			if err := lc.w.WriteFrame(wire.Frame{Type: wire.TypeHello,
				Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "leg"})}); err != nil {
				t.Fatal(err)
			}
			if f, err := lc.r.ReadFrame(); err != nil || f.Type != wire.TypeBye {
				t.Fatalf("a full fleet answered %v (%v), want a Bye", f.Type, err)
			}
			return gw
		}},
		{"protocol error", nil, func(t *testing.T, g *Gateway) *closeCounter {
			lc, gw := pipeClient(t, g)
			if err := lc.w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, wireIMU(0.002))}); err != nil {
				t.Fatal(err)
			}
			if f, err := lc.r.ReadFrame(); err != nil || f.Type != wire.TypeBye {
				t.Fatalf("a bad first frame got %v (%v), want a Bye", f.Type, err)
			}
			return gw
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr := newScriptedReplica(t, tc.reply)
			g, _ := legGateway(t, sr, 100*time.Millisecond)
			gw := tc.end(t, g)
			g.awaitRelayed(t, gw)
			if n := gw.closes.Load(); n != 1 {
				t.Errorf("the relay closed the client conn %d times, want 1", n)
			}
		})
	}
}

// byeEnd opens a session and ends it with or without the client's Bye.
func byeEnd(bye bool) func(t *testing.T, g *Gateway) *closeCounter {
	return func(t *testing.T, g *Gateway) *closeCounter {
		lc, gw := dialCountedLeg(t, g)
		lc.end(t, bye)
		return gw
	}
}

// Marking a replica Down and shutting the gateway down each close the
// legs parked there.
func TestParkedLegsCloseOnDownAndShutdown(t *testing.T) {
	sr := newScriptedReplica(t, &wire.Bye{Reason: "eof"})
	g, _ := legGateway(t, sr, 5*time.Second)
	dialLeg(t, g).end(t, true)
	g.Coord.setStatus(0, down)
	sr.awaitClosed(t, "the replica was marked Down")
	if n := g.parkedLegs(0); n != 0 {
		t.Fatalf("%d legs still parked on a Down replica", n)
	}

	g.Coord.setStatus(0, Up)
	dialLeg(t, g).end(t, true)
	if n := g.parkedLegs(0); n != 1 {
		t.Fatalf("%d legs parked, want 1", n)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	sr.awaitClosed(t, "Shutdown")
}

// Shutdown racing relays that are parking their legs: whichever wins,
// no leg stays parked and every replica connection is closed.
func TestShutdownRacesParking(t *testing.T) {
	const clients = 4
	sr := newScriptedReplica(t, &wire.Bye{Reason: "eof"})
	g, _ := legGateway(t, sr, 5*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, s := net.Pipe()
			defer c.Close()
			g.HandleConn(s)
			r, w := wire.NewReader(c), wire.NewWriter(c)
			defer r.Release()
			defer w.Release()
			// any step may fail once Shutdown has started
			_ = w.WriteFrame(wire.Frame{Type: wire.TypeHello,
				Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "race"})})
			if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
				return
			}
			_ = w.WriteFrame(wire.Frame{Type: wire.TypeBye, Payload: wire.AppendBye(nil, wire.Bye{})})
			for {
				if _, err := r.ReadFrame(); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(time.Duration(time.Now().UnixNano()%500) * time.Microsecond)
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := g.parkedLegs(0); n != 0 {
		t.Fatalf("%d legs parked after Shutdown", n)
	}
	for i := sr.accepted.Load(); i > 0; i-- {
		sr.awaitClosed(t, "Shutdown")
	}
}

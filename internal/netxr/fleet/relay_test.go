package fleet

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

// gatewayRelayAllocBudget is the heap allocations one session may make
// in the gateway — relay, coordinator and the client's net.Pipe — from
// HandleConn to the parked leg: 29.2 measured, + 10 %. About 24 of them
// are the net.Pipe, its channels and its deadline timers (a TCP conn
// sets deadlines without allocating); the relay and the admission make
// about 5, and the replica behind the parked leg none.
const gatewayRelayAllocBudget = 33

// echoReplica serves one leg session after session with frames encoded
// once: a Welcome per Hello, a pose per IMU frame, a Bye per Bye.
func echoReplica(conn net.Conn, welcome, pose, bye []byte) {
	r := wire.NewReader(conn)
	defer r.Release()
	defer conn.Close()
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		var out []byte
		switch f.Type {
		case wire.TypeHello:
			out = welcome
		case wire.TypeIMU:
			out = pose
		case wire.TypeBye:
			out = bye
		}
		if out != nil {
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}
}

// relayRig is a gateway in front of one echoReplica, and the client
// frames of one lifecycle, encoded once.
type relayRig struct {
	g               *Gateway
	hello, imu, bye []byte
	samples         int
}

func newRelayRig(t *testing.T, samples int) *relayRig {
	t.Helper()
	frame := func(typ wire.Type, payload []byte) []byte {
		return wire.AppendFrame(nil, wire.Frame{Type: typ, Payload: payload})
	}
	welcome := frame(wire.TypeWelcome, wire.AppendWelcome(nil, wire.Welcome{Proto: wire.Version, Session: 1}))
	pose := frame(wire.TypePose, wire.AppendPose(nil, wire.Pose{T: 1}))
	bye := frame(wire.TypeBye, wire.AppendBye(nil, wire.Bye{Reason: "eof"}))
	coord := NewCoordinator(Config{TokenSeed: 1})
	coord.AddReplica(0, nil)
	var wg sync.WaitGroup
	g := &Gateway{Coord: coord, HandshakeTimeout: 5 * time.Second, Metrics: telemetry.NewRegistry(),
		Dial: func(int) (net.Conn, error) {
			c, s := net.Pipe()
			wg.Add(1)
			go func() { defer wg.Done(); echoReplica(s, welcome, pose, bye) }()
			return c, nil
		}}
	t.Cleanup(func() { _ = g.Shutdown(context.Background()); wg.Wait() })
	rig := &relayRig{g: g, samples: samples,
		hello: frame(wire.TypeHello, wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "relay"})),
		bye:   frame(wire.TypeBye, wire.AppendBye(nil, wire.Bye{Reason: "done"}))}
	for i := 0; i < samples; i++ {
		rig.imu = append(rig.imu, frame(wire.TypeIMU, wire.AppendIMU(nil, wireIMU(float64(i+1)/500)))...)
	}
	return rig
}

// lifecycle relays one session: Hello and Welcome, the samples up in one
// write and a pose back for each, Bye and the replica's answer.
func (rig *relayRig) lifecycle(t *testing.T) {
	t.Helper()
	c, s := net.Pipe()
	defer c.Close()
	rig.g.HandleConn(s)
	r := wire.NewReader(c)
	defer r.Release()
	await := func(want wire.Type) {
		t.Helper()
		if f, err := r.ReadFrame(); err != nil || f.Type != want {
			t.Fatalf("got %v (%v), want %v", f.Type, err, want)
		}
	}
	write := func(b []byte) {
		t.Helper()
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(rig.hello)
	await(wire.TypeWelcome)
	write(rig.imu)
	for i := 0; i < rig.samples; i++ {
		await(wire.TypePose)
	}
	write(rig.bye)
	await(wire.TypeBye)
}

// quiesce waits until every relay has returned with its leg parked.
func (rig *relayRig) quiesce(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rig.g.mu.Lock()
		n := len(rig.g.conns)
		rig.g.mu.Unlock()
		if n == 0 && rig.g.parkedLegs(0) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d relays still running, %d legs parked", n, rig.g.parkedLegs(0))
		}
		time.Sleep(time.Millisecond)
	}
}

// The gateway's share of a session lifecycle, on its own, so a
// regression in the node-level budget (TestSessionLifecycleAllocBudget)
// names its layer. Skipped under -race, which allocates on its own
// account.
func TestGatewayRelayAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	const warmup, measured = 50, 500
	rig := newRelayRig(t, 16)
	for i := 0; i < warmup; i++ {
		rig.lifecycle(t)
	}
	rig.quiesce(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		rig.lifecycle(t)
	}
	rig.quiesce(t)
	runtime.ReadMemStats(&after)
	perLife := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocs, %.1f KB per relayed lifecycle", perLife, float64(after.TotalAlloc-before.TotalAlloc)/measured/1024)
	if perLife > gatewayRelayAllocBudget {
		t.Fatalf("%.1f allocs per relayed lifecycle, budget %d", perLife, gatewayRelayAllocBudget)
	}
}

// capReplica records the bytes of every frame it reads after the
// handshake and answers each with a pose parenting the received span,
// recording the bytes it sent.
type capReplica struct {
	tracer *telemetry.SpanCollector

	mu       sync.Mutex
	got      [][]byte // uplink frames as the replica read them
	sent     [][]byte // poses as the replica wrote them
	received []telemetry.SpanRef
}

func (cr *capReplica) serve(conn net.Conn) {
	defer conn.Close()
	r := wire.NewReader(conn)
	defer r.Release()
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypeHello {
		return
	}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.TypeWelcome,
		Payload: wire.AppendWelcome(nil, wire.Welcome{Proto: wire.Version, Session: 1})})); err != nil {
		return
	}
	for {
		raw, err := r.ReadRaw()
		if err != nil || raw.Type == wire.TypeBye {
			return
		}
		ref := cr.tracer.Emit("integrator", raw.Trace.Trace, 0, 0, raw.Trace.Span)
		out := wire.AppendFrame(nil, wire.Frame{Type: wire.TypePose, Trace: ref,
			Payload: wire.AppendPose(nil, wire.Pose{T: 1})})
		cr.mu.Lock()
		cr.got = append(cr.got, append([]byte(nil), raw.Bytes...))
		cr.sent = append(cr.sent, out)
		cr.received = append(cr.received, raw.Trace)
		cr.mu.Unlock()
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// Once the gateway's hop collector is full, the relay forwards frames
// verbatim both ways (no hop span to point them at), Dropped still
// counts every hop span not kept, and the replica's spans parent the
// client's directly, so the lineage still reaches the client span.
func TestGatewayForwardsVerbatimPastSpanCap(t *testing.T) {
	const hopCap, frames = 4, 10
	replicaTracer := telemetry.NewSpanCollector(0)
	replicaTracer.SetIDBase(1 << 40)
	cr := &capReplica{tracer: replicaTracer}
	gwSpans := telemetry.NewSpanCollector(hopCap)
	coord := NewCoordinator(Config{TokenSeed: 1})
	coord.AddReplica(0, nil)
	g := &Gateway{Coord: coord, Spans: gwSpans, HandshakeTimeout: 5 * time.Second,
		Dial: func(int) (net.Conn, error) {
			c, s := net.Pipe()
			go cr.serve(s)
			return c, nil
		}}
	defer g.Shutdown(context.Background())

	conn, r, _, _ := handshake(t, g, wire.Hello{App: "cap"}, telemetry.SpanRef{})
	defer conn.Close()
	clientSpans := telemetry.NewSpanCollector(0)
	var sent, delivered [][]byte
	var clientRefs []telemetry.SpanRef
	for i := 0; i < frames; i++ {
		ref := clientSpans.Emit("imu", 0, 0, 0)
		out := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeIMU, Trace: ref,
			Payload: wire.AppendIMU(nil, wireIMU(float64(i+1)/500))})
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		raw, err := r.ReadRaw()
		if err != nil || raw.Type != wire.TypePose {
			t.Fatalf("frame %d: %v %v, want a pose", i, raw.Type, err)
		}
		sent, clientRefs = append(sent, out), append(clientRefs, ref)
		delivered = append(delivered, append([]byte(nil), raw.Bytes...))
	}

	// hop spans in relay order: up 0, down 0, up 1, down 1 fill the cap
	kept := hopCap / 2
	if n := gwSpans.Len(); n != hopCap {
		t.Fatalf("gateway kept %d hop spans, want its cap %d", n, hopCap)
	}
	if d := gwSpans.Dropped(); d != 2*frames-hopCap {
		t.Fatalf("Dropped = %d, want %d (every hop span past the cap)", d, 2*frames-hopCap)
	}
	cr.mu.Lock()
	defer cr.mu.Unlock()
	for i := 0; i < frames; i++ {
		verbatimUp, verbatimDown := bytes.Equal(sent[i], cr.got[i]), bytes.Equal(cr.sent[i], delivered[i])
		if i < kept {
			if verbatimUp || verbatimDown {
				t.Fatalf("frame %d relayed verbatim (up %v, down %v) before the cap", i, verbatimUp, verbatimDown)
			}
			hop, ok := gwSpans.Get(cr.received[i].Span)
			if !ok || len(hop.Parents) != 1 || hop.Parents[0] != clientRefs[i].Span {
				t.Fatalf("frame %d: hop span %+v (%v) does not parent the client span %d", i, hop, ok, clientRefs[i].Span)
			}
			continue
		}
		if !verbatimUp || !verbatimDown {
			t.Fatalf("frame %d past the cap: uplink verbatim %v, downlink verbatim %v", i, verbatimUp, verbatimDown)
		}
		if cr.received[i] != clientRefs[i] {
			t.Fatalf("frame %d: replica saw ref %+v, want the client's %+v", i, cr.received[i], clientRefs[i])
		}
	}
	// the lineage of the replica's last span reaches the client's
	integ := replicaTracer.Find("integrator")
	lastSpan := integ[len(integ)-1]
	parent, ok := clientSpans.Get(lastSpan.Parents[0])
	if !ok || parent.ID != clientRefs[frames-1].Span {
		t.Fatalf("the replica's last span parents %v, not a client span (%v)", lastSpan.Parents, ok)
	}
}

package fleet

// Trace-ref propagation through the gateway (satellite of the fleet
// observability PR): the handshake frames must relay their trace refs
// verbatim — including across resume, where the gateway rewrites the
// Welcome payload but must not touch its header ref — and, when a hop
// collector is installed, relayed data frames must be re-parented onto
// gateway hop spans so stitched traces show the relay.

import (
	"net"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// fakeReplica speaks raw wire protocol on one conn: it answers the Hello
// with a Welcome carrying welcomeRef in its header, then echoes every
// data frame back as a Pose whose ref parents the received span.
type fakeReplica struct {
	welcomeRef telemetry.SpanRef
	tracer     *telemetry.SpanCollector

	mu         sync.Mutex
	helloRefs  []telemetry.SpanRef
	uplinkRefs []telemetry.SpanRef
}

func (fr *fakeReplica) serve(conn net.Conn, sessionID uint64) {
	r, w := wire.NewReader(conn), wire.NewWriter(conn)
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.TypeHello {
		_ = conn.Close()
		return
	}
	fr.mu.Lock()
	fr.helloRefs = append(fr.helloRefs, f.Trace)
	fr.mu.Unlock()
	_ = w.WriteFrame(wire.Frame{Type: wire.TypeWelcome, Trace: fr.welcomeRef,
		Payload: wire.AppendWelcome(nil, wire.Welcome{Proto: wire.Version, Session: sessionID})})
	for {
		f, err := r.ReadFrame()
		if err != nil || f.Type == wire.TypeBye {
			_ = conn.Close()
			return
		}
		fr.mu.Lock()
		fr.uplinkRefs = append(fr.uplinkRefs, f.Trace)
		fr.mu.Unlock()
		ref := fr.tracer.Emit("integrator", f.Trace.Trace, 0, 0, f.Trace.Span)
		if err := w.WriteFrame(wire.Frame{Type: wire.TypePose, Trace: ref,
			Payload: wire.AppendPose(nil, wire.Pose{T: 1})}); err != nil {
			_ = conn.Close()
			return
		}
	}
}

func traceGateway(t *testing.T, fr *fakeReplica, spans *telemetry.SpanCollector) *Gateway {
	t.Helper()
	coord := NewCoordinator(Config{ReplicaCapacity: 8, TokenSeed: 1,
		ResumeBurst: 64, ResumeWindowSec: 1})
	coord.AddReplica(0, nil)
	var sid uint64
	var mu sync.Mutex
	gw := &Gateway{
		Coord: coord,
		Spans: spans,
		Dial: func(int) (net.Conn, error) {
			c, s := net.Pipe()
			mu.Lock()
			sid++
			id := sid
			mu.Unlock()
			go fr.serve(s, id)
			return c, nil
		},
		HandshakeTimeout: 5 * time.Second,
	}
	return gw
}

func handshake(t *testing.T, gw *Gateway, hello wire.Hello, helloRef telemetry.SpanRef) (net.Conn, *wire.Reader, *wire.Writer, wire.Frame) {
	t.Helper()
	c, g := net.Pipe()
	gw.HandleConn(g)
	r, w := wire.NewReader(c), wire.NewWriter(c)
	hello.Proto = wire.Version
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello, Trace: helloRef,
		Payload: wire.AppendHello(nil, hello)}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("awaiting welcome: %v", err)
	}
	if f.Type != wire.TypeWelcome {
		t.Fatalf("got %v, want welcome", f.Type)
	}
	return c, r, w, f
}

func TestGatewayPreservesHandshakeTraceRefsAcrossResume(t *testing.T) {
	replicaTracer := telemetry.NewSpanCollector(0)
	replicaTracer.SetIDBase(1 << 40)
	welcomeRef := replicaTracer.Emit("handshake", 0, 0, 0)
	fr := &fakeReplica{welcomeRef: welcomeRef, tracer: replicaTracer}
	gw := traceGateway(t, fr, nil)

	helloRef := telemetry.SpanRef{Trace: 0xabc, Span: 0x111}
	conn, _, _, wf := handshake(t, gw, wire.Hello{App: "xr"}, helloRef)
	if wf.Trace != welcomeRef {
		t.Errorf("fresh welcome header ref = %+v, want the replica's %+v", wf.Trace, welcomeRef)
	}
	wel, err := wire.DecodeWelcome(wf.Payload)
	if err != nil || wel.ResumeToken == 0 {
		t.Fatalf("welcome = %+v err %v", wel, err)
	}
	fr.mu.Lock()
	gotHello := append([]telemetry.SpanRef{}, fr.helloRefs...)
	fr.mu.Unlock()
	if len(gotHello) != 1 || gotHello[0] != helloRef {
		t.Errorf("replica saw hello refs %+v, want [%+v]", gotHello, helloRef)
	}
	_ = conn.Close()

	// resume: the gateway strips the token before dialing the replica and
	// rewrites the Welcome payload (Resumed, epoch) — but both header
	// trace refs must ride through untouched.
	resumeRef := telemetry.SpanRef{Trace: 0xabc, Span: 0x222}
	conn2, _, _, wf2 := handshake(t, gw,
		wire.Hello{App: "xr", ResumeToken: wel.ResumeToken, LastSeq: 3}, resumeRef)
	defer func() { _ = conn2.Close() }()
	if wf2.Trace != welcomeRef {
		t.Errorf("resumed welcome header ref = %+v, want %+v", wf2.Trace, welcomeRef)
	}
	wel2, err := wire.DecodeWelcome(wf2.Payload)
	if err != nil || !wel2.Resumed || wel2.ResumeToken != wel.ResumeToken {
		t.Fatalf("resumed welcome = %+v err %v", wel2, err)
	}
	fr.mu.Lock()
	gotHello = append([]telemetry.SpanRef{}, fr.helloRefs...)
	fr.mu.Unlock()
	if len(gotHello) != 2 || gotHello[1] != resumeRef {
		t.Errorf("replica saw hello refs %+v, want second = %+v", gotHello, resumeRef)
	}
}

func TestGatewayHopSpansReparentRelayedFrames(t *testing.T) {
	replicaTracer := telemetry.NewSpanCollector(0)
	replicaTracer.SetIDBase(1 << 40)
	fr := &fakeReplica{tracer: replicaTracer}
	gwSpans := telemetry.NewSpanCollector(0)
	gw := traceGateway(t, fr, gwSpans)

	conn, r, w, _ := handshake(t, gw, wire.Hello{App: "xr"}, telemetry.SpanRef{})
	defer func() { _ = conn.Close() }()

	clientRef := telemetry.SpanRef{Trace: 7, Span: 5}
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Trace: clientRef,
		Payload: wire.AppendIMU(nil, wireIMU(0.01))}); err != nil {
		t.Fatal(err)
	}
	pf, err := r.ReadFrame()
	if err != nil || pf.Type != wire.TypePose {
		t.Fatalf("pose frame: %v %v", pf.Type, err)
	}

	// uplink: the replica must have seen a gateway span, same trace,
	// different (re-parented) span id from the gateway's id range
	fr.mu.Lock()
	upRefs := append([]telemetry.SpanRef{}, fr.uplinkRefs...)
	fr.mu.Unlock()
	if len(upRefs) != 1 {
		t.Fatalf("replica uplink refs = %+v", upRefs)
	}
	up := upRefs[0]
	if up.Trace != clientRef.Trace {
		t.Errorf("uplink trace id changed: %+v", up)
	}
	if uint64(up.Span) < gatewayIDBase {
		t.Errorf("uplink span %#x not from the gateway id range", uint64(up.Span))
	}
	gwUp, ok := gwSpans.Get(up.Span)
	if !ok || gwUp.Name != CompGatewayUp {
		t.Fatalf("gateway span for %#x = %+v (ok=%v)", uint64(up.Span), gwUp, ok)
	}
	if len(gwUp.Parents) != 1 || gwUp.Parents[0] != clientRef.Span {
		t.Errorf("gw_uplink parents = %v, want [%#x]", gwUp.Parents, uint64(clientRef.Span))
	}

	// downlink: the pose the client received must be re-parented onto a
	// gw_downlink span whose parent is the replica's integrator span
	if uint64(pf.Trace.Span) < gatewayIDBase {
		t.Fatalf("downlink span %#x not from the gateway id range", uint64(pf.Trace.Span))
	}
	gwDown, ok := gwSpans.Get(pf.Trace.Span)
	if !ok || gwDown.Name != compGatewayDown {
		t.Fatalf("gateway downlink span = %+v (ok=%v)", gwDown, ok)
	}
	integ := replicaTracer.Find("integrator")
	if len(integ) != 1 {
		t.Fatalf("replica integrator spans = %+v", integ)
	}
	if len(gwDown.Parents) != 1 || gwDown.Parents[0] != integ[0].ID {
		t.Errorf("gw_downlink parents = %v, want [%#x]", gwDown.Parents, uint64(integ[0].ID))
	}
}

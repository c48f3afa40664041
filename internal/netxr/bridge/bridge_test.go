package bridge

import (
	"context"
	goruntime "runtime"
	"testing"
	"time"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/netxr/netsim"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// offloadRig wires a full client runtime to a full server pipeline over
// an in-memory connection.
type offloadRig struct {
	srv    *session.Server
	pipe   *Pipeline
	client *Client
	loader *runtime.Loader
	player *core.DatasetPlayerPlugin
	tracer *telemetry.SpanCollector
	fastC  *runtime.Subscription
}

func startRig(t *testing.T, pipe *Pipeline, duration float64) *offloadRig {
	t.Helper()
	srv := session.NewServer(session.Config{Metrics: pipe.Metrics}, pipe)

	cConn, sConn := netsim.Pipe()
	if srv.HandleConn(sConn) == nil {
		t.Fatal("conn refused")
	}
	tracer := telemetry.NewSpanCollector(0)
	cl, err := DialWith(cConn, wire.Hello{App: "test", IMURateHz: 500, CamRateHz: 15}, DialOptions{Tracer: tracer})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	dcfg := sensors.DefaultDatasetConfig()
	dcfg.Duration = duration
	ds := sensors.GenerateDataset(dcfg)
	loader := runtime.NewLoader()
	_ = loader.Context().Phonebook.Register(telemetry.TracerService, tracer)
	player := &core.DatasetPlayerPlugin{Dataset: ds}
	fastC := loader.Context().Switchboard.GetTopic(runtime.TopicFastPose).Subscribe(16384)
	for _, p := range []runtime.Plugin{cl.Downlink(), cl.Uplink(), player} {
		if err := loader.Load(p); err != nil {
			t.Fatalf("load %s: %v", p.Name(), err)
		}
	}
	rig := &offloadRig{srv: srv, pipe: pipe, client: cl, loader: loader,
		player: player, tracer: tracer, fastC: fastC}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = loader.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return rig
}

// stateOf returns a live session's back half from the pipeline's table.
func (p *Pipeline) stateOf(id uint64) *pipeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.states[id]
}

// pumpAndAwaitPose advances playback to t and waits for a downlinked pose.
func (r *offloadRig) pumpAndAwaitPose(t *testing.T, virtualT float64) mathx.Pose {
	t.Helper()
	r.player.PumpUntil(virtualT)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case ev := <-r.fastC.C:
			if pose, ok := ev.Value.(mathx.Pose); ok {
				return pose
			}
		case <-time.After(10 * time.Millisecond):
			if err := r.client.Err(); err != nil {
				t.Fatalf("transport: %v", err)
			}
		}
	}
	t.Fatal("no pose arrived")
	return mathx.Pose{}
}

func TestOffloadEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := &Pipeline{
		Metrics: reg,
		Init:    func(wire.Hello) integrator.State { return integrator.State{Rot: mathx.QuatIdentity()} },
	}
	rig := startRig(t, pipe, 2)

	rig.pumpAndAwaitPose(t, 0.5)
	rig.player.PumpUntil(1.0)

	// the client sees poses computed by the server-side integrator; its
	// QoE report lands in the server's registry
	if err := rig.client.SendQoE(telemetry.MTPSample{T: 1, IMUAge: 0.004}); err != nil {
		t.Fatalf("qoe: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	name := telemetry.MetricName("netxr", "qoe_mtp_ms")
	for time.Now().Before(deadline) {
		if h := reg.Histogram(name); h.Count() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Histogram(name).Count() == 0 {
		t.Fatal("QoE sample never reached the server registry")
	}

	// wire RTT probe answered in-layer
	if _, err := rig.client.Ping(1, 1.0, 2*time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestOffloadTraceCrossesWire(t *testing.T) {
	pipe := &Pipeline{Metrics: telemetry.NewRegistry()}
	rig := startRig(t, pipe, 1)

	rig.pumpAndAwaitPose(t, 0.5)

	// server half: net_uplink spans parented on client sensor spans
	st := pipe.stateOf(rig.client.Session())
	if st == nil {
		t.Fatal("no server state for session")
	}
	serverTr := st.tracer
	ups := serverTr.Find(compNetUp)
	if len(ups) == 0 {
		t.Fatal("no net_uplink spans on the server")
	}
	base := telemetry.SpanID(serverIDBase(rig.client.Session()))
	for _, sp := range ups {
		if sp.ID <= base {
			t.Fatalf("server span id %d not above session base %d", sp.ID, base)
		}
		if len(sp.Parents) == 0 {
			t.Fatal("net_uplink span lost its remote parent")
		}
		// the parent is a client-side sensor span: below the server base
		for _, parent := range sp.Parents {
			if parent > base {
				t.Fatalf("uplink parent %d is not a client span", parent)
			}
			if _, ok := rig.tracer.Get(parent); !ok {
				t.Fatalf("uplink parent %d unknown to the client collector", parent)
			}
		}
	}

	// client half: net_downlink spans parented on server integrator spans
	downs := rig.tracer.Find(compNetDown)
	if len(downs) == 0 {
		t.Fatal("no net_downlink spans on the client")
	}
	found := false
	for _, sp := range downs {
		for _, parent := range sp.Parents {
			if parent > base {
				// resolves in the server collector: the lineage crosses the
				// wire and back
				if psp, ok := serverTr.Get(parent); ok && psp.Name == compNetDown {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no client downlink span resolved to a server span")
	}
}

// openSession starts a wire-level session on srv: the client end of the
// conn has said Hello and read its Welcome, and nothing else runs on it.
func openSession(t *testing.T, srv *session.Server, app string) (*session.Session, *netsim.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	cConn, sConn := netsim.Pipe()
	sess := srv.HandleConn(sConn)
	if sess == nil {
		t.Fatal("conn refused")
	}
	t.Cleanup(func() { _ = cConn.Close() })
	w, r := wire.NewWriter(cConn), wire.NewReader(cConn)
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: app})}); err != nil {
		t.Fatal(err)
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("awaiting welcome: %v %v", f.Type, err)
	}
	return sess, cConn, r, w
}

// shutdownOnCleanup drains srv when the test ends.
func shutdownOnCleanup(t *testing.T, srv *session.Server) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
}

// A burst of IMU frames the client writes without reading reaches the
// replica's integrator on the session reader, and its poses come back
// latest-wins: strictly increasing in T, the last one bit-equal to
// feeding every sample of the burst into a fresh integrator, fewer poses
// than samples (one per socket read or poseBatchMax samples), and every
// pose the integrator made either sent or counted as displaced in the
// session's slot.
func TestPoseBurstIsLatestWinsAndAccounted(t *testing.T) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 1.1
	samples := sensors.GenerateDataset(cfg).IMU[:500]
	init := integrator.State{Rot: mathx.QuatIdentity()}
	reg := telemetry.NewRegistry()
	pipe := &Pipeline{Metrics: reg, Init: func(wire.Hello) integrator.State { return init }}
	srv := session.NewServer(session.Config{Metrics: reg}, pipe)
	shutdownOnCleanup(t, srv)
	sess, _, r, w := openSession(t, srv, "burst")

	// one Write carries the whole burst; the client reads nothing until it
	// is all on the pipe, so the session writer blocks on its first pose
	// and the reader runs ahead of it
	for _, s := range samples {
		w.Queue(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, s)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	last := samples[len(samples)-1].T
	received, lastT := 0, 0.0
	var lastPose mathx.Pose
	for lastT < last {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("after %d poses: %v", received, err)
		}
		p, err := wire.DecodePose(f.Payload)
		if err != nil || f.Type != wire.TypePose {
			t.Fatalf("frame %v: %v", f.Type, err)
		}
		if p.T <= lastT {
			t.Fatalf("pose T=%v after T=%v: not latest-wins order", p.T, lastT)
		}
		received, lastT, lastPose = received+1, p.T, p.Pose
	}
	in := integrator.New(init)
	for _, s := range samples {
		in.Feed(s)
	}
	if want := in.FastPose(); lastPose != want {
		t.Fatalf("last pose %+v, want %+v (every sample fed one by one)", lastPose, want)
	}
	poses := reg.Counter(telemetry.MetricName(core.CompIntegrator, "poses_total")).Value()
	_, dropped, _, _ := sess.Stats()
	if uint64(received)+dropped != poses {
		t.Fatalf("%d poses sent + %d displaced = %d, want poses_total %d", received, dropped, uint64(received)+dropped, poses)
	}
	if poses >= uint64(len(samples)) {
		t.Fatalf("%d poses for a %d-sample burst: the reader never batched", poses, len(samples))
	}
	if dropped == 0 {
		t.Fatal("no pose displaced: the burst never outran the writer")
	}
	if got := reg.Counter(telemetry.MetricName("netxr", "send_dropped_total")).Value(); got != dropped {
		t.Fatalf("send_dropped_total %d, session dropped %d", got, dropped)
	}
}

// A replica session without VIO runs on the session's own two
// goroutines, its reader and its writer: the integrator and the pose
// path add none.
func TestReplicaSessionRunsOnTwoGoroutines(t *testing.T) {
	pipe := &Pipeline{Metrics: telemetry.NewRegistry()}
	srv := session.NewServer(session.Config{IdleTimeout: -1}, pipe) // no idle reaper
	shutdownOnCleanup(t, srv)
	base := settledGoroutines()
	_, _, r, w := openSession(t, srv, "count")
	for i := 1; i <= 3; i++ {
		s := sensors.IMUSample{T: float64(i) / 500}
		if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, s)}); err != nil {
			t.Fatal(err)
		}
		if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypePose {
			t.Fatalf("sample %d: %v %v, want its pose", i, f.Type, err)
		}
	}
	if n := settledGoroutines(); n != base+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("a live session added %d goroutines, want 2 (reader and writer):\n%s", n-base, buf[:goruntime.Stack(buf, true)])
	}
}

// settledGoroutines is the goroutine count once it has held still for a
// few milliseconds, so goroutines an earlier test left exiting are gone.
func settledGoroutines() int {
	n := goruntime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := goruntime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// A client has one uplink and one downlink, each started once: loading
// either a second time fails, in its own loader or another, and the
// replica integrates every published sample exactly once.
func TestPluginStartsOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	rig := startRig(t, &Pipeline{Metrics: reg}, 1)
	other := runtime.NewLoader()
	for _, l := range []*runtime.Loader{rig.loader, other} {
		for _, p := range []runtime.Plugin{rig.client.Uplink(), rig.client.Downlink()} {
			if err := l.Load(p); err == nil {
				t.Fatalf("%s started twice", p.Name())
			}
		}
	}
	if err := other.Shutdown(); err != nil {
		t.Fatal(err)
	}

	rig.pumpAndAwaitPose(t, 0.5)
	published := rig.loader.Context().Switchboard.GetTopic(runtime.TopicIMU).Seq()
	samples := reg.Counter(telemetry.MetricName(core.CompIntegrator, "samples_total"))
	for deadline := time.Now().Add(5 * time.Second); samples.Value() < published; {
		if time.Now().After(deadline) {
			t.Fatalf("replica integrated %d of %d samples", samples.Value(), published)
		}
		time.Sleep(time.Millisecond)
	}
	// a round trip behind the last sample lets a duplicate land first
	if _, err := rig.client.Ping(1, 0.5, 2*time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if got := samples.Value(); got != published {
		t.Fatalf("replica integrated %d samples for %d published", got, published)
	}
}

// LastPoseT reports no pose until the downlink has published one, then
// the T of the latest.
func TestLastPoseT(t *testing.T) {
	rig := startRig(t, &Pipeline{Metrics: telemetry.NewRegistry()}, 1)
	if got, ok := rig.client.LastPoseT(); ok {
		t.Fatalf("LastPoseT = %v before any pose", got)
	}
	rig.pumpAndAwaitPose(t, 0.5)
	// the reader stores T before it publishes the pose, so LastPoseT,
	// read second, is at least the topic's latest
	latest, _ := rig.loader.Context().Switchboard.GetTopic(runtime.TopicFastPose).Latest()
	if got, ok := rig.client.LastPoseT(); !ok || got < latest.T {
		t.Fatalf("LastPoseT = %v, %v; the fast-pose topic's latest T is %v", got, ok, latest.T)
	}
}

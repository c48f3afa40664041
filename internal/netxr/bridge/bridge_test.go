package bridge

import (
	"context"
	"testing"
	"time"

	"illixr/internal/core"
	"illixr/internal/faults"
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

func TestOffloadSupervisorRestartKeepsSession(t *testing.T) {
	// schedule one integrator panic at t>=0.2: the per-session supervisor
	// must restart the plugin while the session stays connected
	sched := &faults.Schedule{Windows: []faults.Window{
		{Kind: faults.PluginPanic, Component: "integrator.rk4", Start: 0.2, End: 0.2},
	}}
	pipe := &Pipeline{
		Metrics:     telemetry.NewRegistry(),
		Inject:      faults.NewInjector(sched),
		MaxRestarts: 3,
	}
	rig := startRig(t, pipe, 3)

	rig.pumpAndAwaitPose(t, 0.1)
	// crossing t=0.2 trips the injected panic
	rig.player.PumpUntil(0.5)

	deadline := time.Now().Add(5 * time.Second)
	var restarted bool
	for time.Now().Before(deadline) && !restarted {
		if st := pipe.stateOf(rig.client.Session()); st != nil {
			health := st.loader.Context().Health.Snapshot()
			if h, ok := health["integrator.rk4"]; ok && h == runtime.Healthy && pipe.Inject.Fired() > 0 {
				restarted = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !restarted {
		t.Fatal("integrator never restarted after the injected panic")
	}
	if rig.srv.Len() != 1 {
		t.Fatalf("session count = %d; the session must survive a plugin crash", rig.srv.Len())
	}

	// and poses keep flowing afterwards
	rig.pumpAndAwaitPose(t, 1.0)
}

// A burst of poses published faster than the session writer drains them
// reaches the client latest-wins: strictly increasing in T, ending with
// the burst's last pose, and every pose of the burst either sent or
// counted as displaced — at the source or in the session's slot.
func TestPoseBurstIsLatestWinsAndAccounted(t *testing.T) {
	const n = 500 // under the subscription's bound: the topic displaces none
	reg := telemetry.NewRegistry()
	pipe := &Pipeline{Metrics: reg}
	srv := session.NewServer(session.Config{Metrics: reg}, pipe)
	cConn, sConn := netsim.Pipe()
	sess := srv.HandleConn(sConn)
	if sess == nil {
		t.Fatal("conn refused")
	}
	defer func() {
		_ = cConn.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	w, r := wire.NewWriter(cConn), wire.NewReader(cConn)
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "burst"})}); err != nil {
		t.Fatal(err)
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("awaiting welcome: %v %v", f.Type, err)
	}
	var st *pipeState
	for deadline := time.Now().Add(5 * time.Second); st == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session never started")
		}
		st = pipe.stateOf(sess.ID())
	}

	// the client reads nothing until the whole burst is published: the
	// writer blocks on the pipe and the forwarder runs ahead of it
	topic := st.loader.Context().Switchboard.GetTopic(runtime.TopicFastPose)
	for i := 1; i <= n; i++ {
		topic.Publish(runtime.Event{T: float64(i), Value: mathx.Pose{Pos: mathx.Vec3{X: float64(i)}}})
	}
	received, lastT := 0, 0.0
	for lastT < n {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("after %d poses: %v", received, err)
		}
		p, err := wire.DecodePose(f.Payload)
		if err != nil || f.Type != wire.TypePose {
			t.Fatalf("frame %v: %v", f.Type, err)
		}
		if p.T <= lastT || p.Pose.Pos.X != p.T {
			t.Fatalf("pose T=%v (X=%v) after T=%v: not latest-wins order", p.T, p.Pose.Pos.X, lastT)
		}
		received, lastT = received+1, p.T
	}
	_, dropped, _, _ := sess.Stats()
	if received+int(dropped) != n {
		t.Fatalf("%d poses sent + %d displaced = %d, want the burst's %d", received, dropped, received+int(dropped), n)
	}
	if dropped == 0 {
		t.Fatal("no pose displaced: the burst never outran the writer")
	}
	if got := reg.Counter(telemetry.MetricName("netxr", "send_dropped_total")).Value(); got != dropped {
		t.Fatalf("send_dropped_total %d, session dropped %d", got, dropped)
	}
}

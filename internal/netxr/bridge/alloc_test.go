package bridge

import (
	"io"
	"net"
	"runtime"
	"strings"
	"testing"

	"illixr/internal/core"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	xruntime "illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

// replicaLifecycleAllocBudget is the heap allocations one session may
// make on the replica alone — session.Server and Pipeline, from the
// Hello to SessionEnd: 14.5 measured, + 10 % (15.2 before a span
// collector's first parent slab block held 64 IDs). About 6 of them are the
// net.Pipe's deadline timers (a TCP conn sets deadlines without
// allocating); the rest are the session, its writer and SessionEnd
// goroutines, the pipeline state and the span collector with its storage.
// The client end is one net.Pipe kept across sessions, as the gateway
// keeps its leg, writing frames encoded once.
const replicaLifecycleAllocBudget = 16

// vioReplicaLifecycleAllocBudget is the same for a -vio session that
// also uplinks one camera frame and waits for VIO to take it: 57.4
// measured, + 10 %. The rest over the plain budget is the session's VIO
// goroutine, its inbox, the filter and front end, and the frame's decode
// and update.
const vioReplicaLifecycleAllocBudget = 64

// replicaRig drives whole sessions through a replica over one kept
// connection: Hello, replicaSamples traced IMU frames (and on a -vio
// replica a camera frame at the last sample's time) in one write, the
// pose covering the last sample, Bye and the replica's Bye.
type replicaRig struct {
	srv    *session.Server
	pipe   *Pipeline
	conn   net.Conn
	r      *wire.Reader
	hello  []byte // encoded once
	imu    []byte
	bye    []byte
	lastT  float64
	frames *telemetry.Counter // illixr_vio_frames_total
}

const replicaSamples = 16

func newReplicaRig(t *testing.T, withVIO bool) *replicaRig {
	t.Helper()
	pipe := &Pipeline{Metrics: telemetry.NewRegistry()}
	if withVIO {
		pipe.VIO = true
		pipe.Cam = func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() }
	}
	srv := session.NewServer(session.Config{Metrics: pipe.Metrics, IdleTimeout: -1}, pipe)
	shutdownOnCleanup(t, srv)
	c, s := net.Pipe()
	if srv.HandleConn(s) == nil {
		t.Fatal("conn refused")
	}
	rig := &replicaRig{srv: srv, pipe: pipe, conn: c, r: wire.NewReader(c)}
	t.Cleanup(func() { _ = c.Close() })
	rig.hello = wire.AppendFrame(nil, wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "alloc", IMURateHz: 500})})
	for i := 1; i <= replicaSamples; i++ {
		s := sensors.IMUSample{T: float64(i) / 500}
		s.Accel.Y = 9.81
		rig.imu = wire.AppendFrame(rig.imu, wire.Frame{Type: wire.TypeIMU,
			Trace:   telemetry.SpanRef{Trace: telemetry.TraceID(i), Span: telemetry.SpanID(i)},
			Payload: wire.AppendIMU(nil, s)})
		rig.lastT = s.T
	}
	if withVIO {
		rig.imu = wire.AppendFrame(rig.imu, wire.Frame{Type: wire.TypeCamera,
			Payload: wire.AppendCamera(nil, sensors.CameraFrame{Seq: 1, T: rig.lastT})})
		rig.frames = pipe.Metrics.Counter(telemetry.MetricName(core.CompVIO, "frames_total"))
	}
	rig.bye = wire.AppendFrame(nil, wire.Frame{Type: wire.TypeBye,
		Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})})
	return rig
}

// await reads frames until one of type want arrives and returns it.
func (rig *replicaRig) await(t *testing.T, want wire.Type) wire.Frame {
	t.Helper()
	for {
		f, err := rig.r.ReadFrame()
		if err != nil {
			t.Fatalf("awaiting %v: %v", want, err)
		}
		if f.Type == want {
			return f
		}
	}
}

func (rig *replicaRig) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := rig.conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

func (rig *replicaRig) lifecycle(t *testing.T) {
	t.Helper()
	frames := rig.frames.Value()
	rig.write(t, rig.hello)
	rig.await(t, wire.TypeWelcome)
	rig.write(t, rig.imu)
	for {
		p, err := wire.DecodePose(rig.await(t, wire.TypePose).Payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.T == rig.lastT {
			break
		}
	}
	for rig.frames != nil && rig.frames.Value() == frames {
		runtime.Gosched()
	}
	rig.write(t, rig.bye)
	rig.await(t, wire.TypeBye)
}

// quiesce waits until the replica has ended every session, SessionEnd
// included.
func (rig *replicaRig) quiesce(t *testing.T) {
	t.Helper()
	waitCond(t, func() bool {
		rig.pipe.mu.Lock()
		n := len(rig.pipe.states)
		rig.pipe.mu.Unlock()
		return n == 0 && rig.srv.Len() == 0
	})
}

// The replica's share of a session lifecycle, on its own, so a
// regression in the node-level budget (TestSessionLifecycleAllocBudget)
// names its layer. Skipped under -race, which allocates on its own
// account.
func TestReplicaLifecycleAllocBudget(t *testing.T) {
	if perLife := lifecycleAllocs(t, false); perLife > replicaLifecycleAllocBudget {
		t.Fatalf("%.1f allocs per replica lifecycle, budget %d", perLife, replicaLifecycleAllocBudget)
	}
}

// The same for a -vio session that takes one camera frame.
func TestVIOReplicaLifecycleAllocBudget(t *testing.T) {
	if perLife := lifecycleAllocs(t, true); perLife > vioReplicaLifecycleAllocBudget {
		t.Fatalf("%.1f allocs per -vio replica lifecycle, budget %d", perLife, vioReplicaLifecycleAllocBudget)
	}
}

// lifecycleAllocs returns the heap allocations per replica lifecycle,
// measured after a warm-up.
func lifecycleAllocs(t *testing.T, withVIO bool) float64 {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	const warmup, measured = 50, 500
	rig := newReplicaRig(t, withVIO)
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
	t.Logf("%.1f allocs, %.1f KB per replica lifecycle", perLife, float64(after.TotalAlloc-before.TotalAlloc)/measured/1024)
	return perLife
}

// A session without VIO decodes its camera frames into the session's
// scratch frame, and each still gets its net_uplink span; a malformed one
// still ends the session, with a drain Bye naming the camera decode.
func TestMalformedCameraEndsNonVIOSession(t *testing.T) {
	pipe := &Pipeline{RetainTracers: 1}
	srv := session.NewServer(session.Config{IdleTimeout: -1}, pipe)
	shutdownOnCleanup(t, srv)
	_, _, r, w := openSession(t, srv, "camera")
	good := wire.AppendCamera(nil, sensors.CameraFrame{Seq: 1, T: 0.1,
		Features: []sensors.FeatureObs{{ID: 1, U: 2, V: 3}, {ID: 4, U: 5, V: 6}}})
	for _, p := range [][]byte{good, good, good[:len(good)-3]} {
		if err := w.WriteFrame(wire.Frame{Type: wire.TypeCamera, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			t.Fatal("the session closed without a Bye")
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TypeBye {
			continue
		}
		b, err := wire.DecodeBye(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.Reason, "camera") {
			t.Fatalf("Bye %q, want the camera decode error", b.Reason)
		}
		break
	}
	waitCond(t, func() bool { return srv.Len() == 0 })
	waitCond(t, func() bool { return len(pipe.Dumps("")[0].Spans) > 0 })
	if d := pipe.Dumps(""); len(d[0].Spans) != 2 || d[0].Spans[0].Name != compNetUp || d[0].Spans[1].Name != compNetUp {
		t.Fatalf("replica spans %+v, want one net_uplink per good camera frame", d[0].Spans)
	}
}

// clientRuntimeAllocBudget is the heap allocations a session's client
// runtime may make, on a client already dialed: the loader, the tracer's
// registration, the IMU, camera and fast-pose topics, the pose
// subscription, the downlink and uplink started and the loader shut
// down: 12.1 measured, + 10 % (29.1 before the loader held its topics,
// services and plugin list inline, a first subscriber took no snapshot
// slice and the client embedded its two plugins). What is left is the
// loader, three subscriptions of three objects each (the subscription,
// its channel and the channel's buffer) and the two plugins' goroutines.
const clientRuntimeAllocBudget = 14

// The client's share of a session lifecycle, on its own, so a regression
// in the node-level budget (TestSessionLifecycleAllocBudget) names its
// layer. Skipped under -race, which allocates on its own account.
func TestClientRuntimeAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	const warmup, measured = 20, 200
	tracer := telemetry.NewSpanCollector(0)
	legs := make([]*leg, warmup+measured)
	clients := make([]*Client, len(legs))
	for i := range legs {
		legs[i] = newLeg(t, 0, 0)
		cl, err := DialWith(legs[i].conn, wire.Hello{App: "alloc", IMURateHz: 500}, DialOptions{Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	run := func(i int) {
		loader := xruntime.NewLoader()
		ctx := loader.Context()
		if err := ctx.Phonebook.Register(telemetry.TracerService, tracer); err != nil {
			t.Fatal(err)
		}
		ctx.Switchboard.GetTopic(xruntime.TopicIMU)
		ctx.Switchboard.GetTopic(xruntime.TopicCamera)
		poses := ctx.Switchboard.GetTopic(xruntime.TopicFastPose).Subscribe(8192)
		for _, p := range []xruntime.Plugin{clients[i].Downlink(), clients[i].Uplink()} {
			if err := loader.Load(p); err != nil {
				t.Fatal(err)
			}
		}
		poses.Cancel()
		if err := loader.Shutdown(); err != nil {
			t.Fatal(err)
		}
		<-legs[i].peer.done // the peer has seen the conn close
	}
	for i := 0; i < warmup; i++ {
		run(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warmup; i < len(legs); i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocs, %.2f KB per client runtime", perRun, float64(after.TotalAlloc-before.TotalAlloc)/measured/1024)
	if perRun > clientRuntimeAllocBudget {
		t.Fatalf("%.1f allocs per client runtime, budget %d", perRun, clientRuntimeAllocBudget)
	}
}

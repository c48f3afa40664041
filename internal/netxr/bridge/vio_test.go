package bridge

// The -vio half of a replica session (vio.go): its estimates are the
// in-process VIOPlugin's bit for bit, a panic resets VIO and keeps the
// session, and it runs on one goroutine of its own.

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// estimate returns the session's newest VIO estimate (zero before the
// first).
func (v *vioSession) estimate() vio.Estimate {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.latest
}

// pluginEstimates runs core.VIOPlugin over ds in process, one camera
// frame at a time, and returns its estimates in order.
func pluginEstimates(t *testing.T, ds *sensors.Dataset) []vio.Estimate {
	t.Helper()
	loader := runtime.NewLoader()
	slow := loader.Context().Switchboard.GetTopic(runtime.TopicSlowPose).Subscribe(len(ds.Frames))
	player := &core.DatasetPlayerPlugin{Dataset: ds}
	for _, p := range []runtime.Plugin{player, &core.VIOPlugin{Params: vio.DefaultParams(), Dataset: ds}} {
		if err := loader.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	defer loader.Shutdown()
	var out []vio.Estimate
	for _, f := range ds.Frames {
		player.PumpUntil(f.T)
		select {
		case ev := <-slow.C:
			out = append(out, ev.Value.(vio.Estimate))
		case <-time.After(30 * time.Second):
			t.Fatalf("no estimate for the frame at t=%v", f.T)
		}
	}
	return out
}

// A -vio session fed a recording over the wire, in time order and one
// camera frame at a time, estimates what the in-process VIOPlugin
// estimates for the same frames, bit for bit.
func TestVIOSessionMatchesVIOPlugin(t *testing.T) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 1.2
	ds := sensors.GenerateDataset(cfg)
	want := pluginEstimates(t, ds)

	init := integrator.State{Pos: ds.Traj.Position(0), Vel: ds.Traj.Velocity(0), Rot: ds.Traj.Orientation(0)}
	reg := telemetry.NewRegistry()
	pipe := &Pipeline{Metrics: reg, VIO: true,
		Init: func(wire.Hello) integrator.State { return init },
		Cam:  func(wire.Hello) sensors.CameraModel { return ds.Cam },
	}
	srv := session.NewServer(session.Config{Metrics: reg, IdleTimeout: -1}, pipe)
	shutdownOnCleanup(t, srv)
	sess, _, r, w := openSession(t, srv, "vio")
	go func() { // the poses coming back
		for {
			if _, err := r.ReadFrame(); err != nil {
				return
			}
		}
	}()
	frames := reg.Counter(telemetry.MetricName(core.CompVIO, "frames_total"))
	next := 0
	for i, f := range ds.Frames {
		for ; next < len(ds.IMU) && ds.IMU[next].T <= f.T; next++ {
			w.Queue(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, ds.IMU[next])})
		}
		w.Queue(wire.Frame{Type: wire.TypeCamera, Payload: wire.AppendCamera(nil, f)})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		waitCond(t, func() bool { return frames.Value() == uint64(i+1) })
		if got := pipe.stateOf(sess.ID()).vio.estimate(); got != want[i] {
			t.Fatalf("estimate %d (t=%.3f) differs from VIOPlugin's:\n got %+v\nwant %+v", i, f.T, got, want[i])
		}
	}
}

// A panic in a session's VIO resets its filter and keeps the session: the
// reader keeps integrating and sending poses, the reset is counted, and
// estimates resume from the next frame.
func TestVIOPanicResetsFilterAndKeepsSession(t *testing.T) {
	reg := telemetry.NewRegistry()
	var fired atomic.Bool
	pipe := &Pipeline{
		Metrics: reg,
		VIO:     true,
		Cam:     func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() },
		vioFault: func(t float64) {
			if t > 0.2 && fired.CompareAndSwap(false, true) {
				panic("injected VIO fault")
			}
		},
	}
	rig := startRig(t, pipe, 3)

	rig.pumpAndAwaitPose(t, 0.1)
	// the first camera frame past t=0.2 panics
	rig.player.PumpUntil(0.5)
	resets := reg.Counter(telemetry.MetricName(core.CompVIO, "resets_total"))
	waitCond(t, func() bool { return resets.Value() == 1 })
	if rig.srv.Len() != 1 {
		t.Fatalf("session count = %d; the session must survive a VIO panic", rig.srv.Len())
	}

	// poses keep flowing, and so do estimates
	rig.pumpAndAwaitPose(t, 1.0)
	st := pipe.stateOf(rig.client.Session())
	waitCond(t, func() bool { return st.vio.estimate().T > 0.5 })
	if n := resets.Value(); n != 1 {
		t.Fatalf("illixr_vio_resets_total = %d, want 1", n)
	}
}

// A -vio replica session runs on three goroutines: the session's reader
// and writer, and its VIO.
func TestVIOReplicaSessionRunsOnThreeGoroutines(t *testing.T) {
	pipe := &Pipeline{Metrics: telemetry.NewRegistry(), VIO: true,
		Cam: func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() }}
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
	if n := settledGoroutines(); n != base+3 {
		buf := make([]byte, 1<<20)
		t.Fatalf("a live -vio session added %d goroutines, want 3 (reader, writer and VIO):\n%s", n-base, buf[:goruntime.Stack(buf, true)])
	}
}

// A session whose VIO panics on every frame is reset vioResetBudget
// times; the next panic stops its VIO, and the session keeps integrating
// and sending poses.
func TestVIOStopsAfterResetBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := &Pipeline{Metrics: reg, VIO: true,
		Cam:      func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() },
		vioFault: func(float64) { panic("injected VIO fault") },
	}
	srv := session.NewServer(session.Config{Metrics: reg, IdleTimeout: -1}, pipe)
	shutdownOnCleanup(t, srv)
	sess, _, r, w := openSession(t, srv, "budget")
	for i := 1; i <= vioResetBudget+3; i++ {
		f := sensors.CameraFrame{Seq: i, T: float64(i) / 15}
		if err := w.WriteFrame(wire.Frame{Type: wire.TypeCamera, Payload: wire.AppendCamera(nil, f)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-pipe.stateOf(sess.ID()).vio.done:
	case <-time.After(5 * time.Second):
		t.Fatal("VIO still running after a panic on every frame")
	}
	if n := reg.Counter(telemetry.MetricName(core.CompVIO, "resets_total")).Value(); n != vioResetBudget {
		t.Fatalf("illixr_vio_resets_total = %d, want %d", n, vioResetBudget)
	}
	s := sensors.IMUSample{T: 1}
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, s)}); err != nil {
		t.Fatal(err)
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypePose {
		t.Fatalf("after VIO stopped: %v %v, want a pose", f.Type, err)
	}
	if srv.Len() != 1 {
		t.Fatalf("session count = %d; the session must outlive its VIO", srv.Len())
	}
}

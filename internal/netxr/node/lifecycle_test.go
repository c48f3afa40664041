package node

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/netxr/wire"
	xruntime "illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

// lifecycleSamples is what one lifecycle streams before it waits for the
// covering pose — benchmark/'s session_churn phase A.
const lifecycleSamples = 16

// lifecycleRig is a replica behind a gateway on loopback TCP, and the
// samples every lifecycle streams through them.
type lifecycleRig struct {
	rep     *Replica
	gw      *Gateway
	addr    string
	accepts *acceptCounter // the replica's listener
	samples []sensors.IMUSample
	want    mathx.Pose // a local integrator's pose after every sample
	timer   *time.Timer
}

func newLifecycleRig(tb testing.TB, rep *Replica) *lifecycleRig {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	r := &lifecycleRig{rep: rep, accepts: &acceptCounter{Listener: ln}, timer: time.NewTimer(time.Hour)}
	r.gw = &Gateway{Backends: []string{serveOn(tb, r.rep, r.accepts)}}
	r.addr = serve(tb, r.gw)
	in := integrator.New(integrator.State{})
	for i := 0; i < lifecycleSamples; i++ {
		t := float64(i+1) / 500
		r.samples = append(r.samples, sensors.IMUSample{T: t,
			Gyro: mathx.Vec3{X: 0.01 * t, Y: 0.02, Z: -0.01}, Accel: mathx.Vec3{X: 0.1, Y: 9.81, Z: 0.05 * t}})
		in.Feed(r.samples[i])
	}
	r.want = in.FastPose()
	tb.Cleanup(func() { r.timer.Stop() })
	return r
}

// acceptCounter wraps a listener, counting the conns it accepts and how
// many of those the server has closed since.
type acceptCounter struct {
	net.Listener
	accepted, closed atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *acceptCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.closed.Add(1) })
	return c.Conn.Close()
}

// lifecycle is one session from connect to Bye: handshake through the
// gateway, 16 traced IMU samples up, the pose covering the last one back
// — bit-equal to the local integrator's — Bye and teardown of the client
// runtime.
func (r *lifecycleRig) lifecycle(i int) error {
	c := &Client{Addr: r.addr, Hello: wire.Hello{App: "churn", Seed: int64(i), IMURateHz: 500, CamRateHz: 15}}
	if err := c.Start(); err != nil {
		return err
	}
	defer c.Close()
	ctx := c.Loader.Context()
	svc, _ := ctx.Phonebook.Lookup(telemetry.TracerService)
	tracer := svc.(*telemetry.SpanCollector)
	imu := ctx.Switchboard.GetTopic(xruntime.TopicIMU)
	poses := ctx.Switchboard.GetTopic(xruntime.TopicFastPose).Subscribe(64)
	defer poses.Cancel()
	for _, s := range r.samples {
		imu.Publish(xruntime.Event{T: s.T, Value: s, Trace: tracer.Emit(core.CompIMU, 0, s.T, s.T)})
	}
	last := r.samples[len(r.samples)-1].T
	r.timer.Reset(5 * time.Second)
	defer r.timer.Stop()
	for {
		select {
		case ev := <-poses.C:
			if ev.T < last {
				continue
			}
			if got := ev.Value.(mathx.Pose); ev.T != last || got != r.want {
				return fmt.Errorf("lifecycle %d: covering pose at t=%v is %+v, the local integrator's at t=%v %+v", i, ev.T, got, last, r.want)
			}
			return nil
		case <-r.timer.C:
			return fmt.Errorf("lifecycle %d: no pose covering t=%v (transport: %v)", i, last, c.Bridge.Err())
		}
	}
}

// quiesce waits until the replica and the coordinator have let go of
// every session, so a MemStats read sees whole lifecycles.
func (r *lifecycleRig) quiesce(tb testing.TB) {
	tb.Helper()
	eventually(tb, "every session to end", func() bool {
		return r.rep.Server.Len() == 0 && r.gw.Coord.Sessions(0) == 0
	})
}

func (r *lifecycleRig) run(n, from int) error {
	for i := from; i < from+n; i++ {
		if err := r.lifecycle(i); err != nil {
			return err
		}
	}
	return nil
}

// lifecycleAllocBudget is the heap allocations one lifecycle may make,
// client, gateway and replica together: 69.7 measured once the gateway
// closes a client conn once, not twice (the second Close on a TCP conn
// built an error), + 10 %. The client runtime as one loader allocation
// plus its subscriptions and goroutines had brought it from 88.5 to 70.8.
// A span collector's first parent
// slab block holding 64 IDs, not 16, had brought it from 91.7 to 88.5.
// Presized encode buffers, per-session state embedded
// in the session, the pipeline state and the relay, and the client
// resolving the warped topic and its pong table on first use had
// brought it from 112.0 to 92.0. The replica
// integrating on the session reader had brought it from 157.9 to 112.0;
// parking the replica leg had brought it to 173.1, pooled connection
// buffers, the index-free span store and the one-allocation loader to
// 200.9; the tree before them measured 297.3. The replica's, the
// gateway's and the client runtime's own shares have budgets of their
// own (TestReplicaLifecycleAllocBudget, TestGatewayRelayAllocBudget,
// TestClientRuntimeAllocBudget).
const lifecycleAllocBudget = 77

// A session lifecycle allocates what it keeps (DESIGN.md §10.1): the
// connection buffers come from the wire free lists, the span collectors
// and the plugin runtimes cost a handful of objects, not a growth curve.
// Skipped under -race, which allocates on its own account.
func TestSessionLifecycleAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	const warmup, measured = 50, 200
	r := newLifecycleRig(t, &Replica{})
	if err := r.run(warmup, 0); err != nil {
		t.Fatal(err)
	}
	r.quiesce(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.run(measured, warmup); err != nil {
		t.Fatal(err)
	}
	r.quiesce(t)
	runtime.ReadMemStats(&after)
	perLife := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocs, %.1f KB per lifecycle", perLife, float64(after.TotalAlloc-before.TotalAlloc)/measured/1024)
	if perLife > lifecycleAllocBudget {
		t.Fatalf("%.1f allocs per session lifecycle, budget %d", perLife, lifecycleAllocBudget)
	}
}

// BenchmarkSessionLifecycle prices one lifecycle end to end: allocs/op
// and B/op count the client, the gateway and the replica together.
func BenchmarkSessionLifecycle(b *testing.B) {
	r := newLifecycleRig(b, &Replica{})
	if err := r.run(20, 0); err != nil {
		b.Fatal(err)
	}
	r.quiesce(b)
	b.ReportAllocs()
	b.ResetTimer()
	if err := r.run(b.N, 20); err != nil {
		b.Fatal(err)
	}
	r.quiesce(b)
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"illixr/internal/config"
	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/netxr/bridge"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/recycle"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

const (
	numReplicas = 2
	dialTimeout = 5 * time.Second
	stopTimeout = 5 * time.Second
)

// replica is one illixr-serve composed in-process: the same registry,
// pipeline and server settings cmd/illixr-serve builds with no flags.
type replica struct {
	reg  *telemetry.Registry
	srv  *session.Server
	ln   net.Listener
	done chan error
}

// stack is the system under test: two replicas behind one gateway, every
// hop a 127.0.0.1 TCP socket on a kernel-chosen port.
type stack struct {
	replicas []*replica
	coord    *fleet.Coordinator
	gw       *fleet.Gateway
	gwLn     net.Listener
	gwDone   chan error
	tr       *tracer
}

// startStack composes and starts the fleet. A non-nil tracer gets to wrap
// every conn and handler the benchmark hands to the stack; nil leaves the
// stack exactly as the commands build it.
func startStack(seed int64, tr *tracer) (*stack, error) {
	d := config.DefaultNet()
	st := &stack{tr: tr}
	for i := 0; i < numReplicas; i++ {
		reg := telemetry.NewRegistry()
		if i == 0 {
			// recycle's instruments are process-wide; one replica's registry
			// carries them, as one illixr-serve process would
			recycle.Instrument(reg)
		}
		pipe := &bridge.Pipeline{
			Metrics:       reg,
			Init:          func(wire.Hello) integrator.State { return integrator.State{} },
			Cam:           func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() },
			RetainTracers: 64,
		}
		srv := session.NewServer(session.Config{
			MaxSessions: d.MaxSessions,
			QueueLen:    d.QueueLen,
			IdleTimeout: time.Duration(d.IdleTimeoutSec * float64(time.Second)),
			Metrics:     reg,
		}, tr.wrapHandler(pipe))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("replica %d listen: %w", i, err)
		}
		r := &replica{reg: reg, srv: srv, ln: ln, done: make(chan error, 1)}
		go func() { r.done <- srv.Serve(tr.wrapListener(ln, roleReplica)) }()
		st.replicas = append(st.replicas, r)
	}

	gwReg := telemetry.NewRegistry()
	st.coord = fleet.NewCoordinator(fleet.Config{
		ReplicaCapacity: d.MaxSessions,
		RetryAfter:      250 * time.Millisecond,
		ResumeBurst:     16,
		TokenSeed:       seed,
		Metrics:         gwReg,
		Events:          telemetry.NewFlightRecorder(telemetry.DefaultFlightCap),
	})
	for i := range st.replicas {
		st.coord.AddReplica(i, nil)
	}
	st.gw = &fleet.Gateway{
		Coord: st.coord,
		Dial: func(id int) (net.Conn, error) {
			t0 := nanos()
			c, err := net.DialTimeout("tcp", st.replicas[id].ln.Addr().String(), dialTimeout)
			if err != nil {
				return nil, err
			}
			tr.replicaDial(nanos() - t0)
			return tr.wrapConn(c, roleGwReplicaLeg), nil
		},
		Metrics: gwReg,
		Spans:   telemetry.NewSpanCollector(0),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("gateway listen: %w", err)
	}
	st.gwLn = ln
	st.gwDone = make(chan error, 1)
	go func() { st.gwDone <- st.gw.Serve(tr.wrapListener(ln, roleGwClientLeg)) }()
	return st, nil
}

func (st *stack) gatewayAddr() string { return st.gwLn.Addr().String() }

func (st *stack) replicaAddr(i int) string { return st.replicas[i].ln.Addr().String() }

// counter sums one counter over the replicas' registries.
func (st *stack) counter(name string) uint64 {
	var n uint64
	for _, r := range st.replicas {
		n += r.reg.Snapshot().Counters[name]
	}
	return n
}

// quiesce waits until no session is left anywhere: the client-side close
// is asynchronous to the replica's teardown, so checks that follow a
// workload poll for the state instead of assuming it.
func (st *stack) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		busy := ""
		for i, r := range st.replicas {
			if n := r.srv.Len(); n != 0 {
				busy = fmt.Sprintf("replica %d still hosts %d sessions", i, n)
			}
			if n := st.coord.Sessions(i); n != 0 {
				busy = fmt.Sprintf("coordinator still places %d sessions on replica %d", n, i)
			}
		}
		if busy == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New(busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the gateway and the replicas down and waits for their accept
// loops; it is safe on a partly started stack.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	var errs []error
	if st.gw != nil && st.gwLn != nil {
		errs = append(errs, st.gw.Shutdown(ctx), served(<-st.gwDone))
	}
	for _, r := range st.replicas {
		errs = append(errs, r.srv.Shutdown(ctx), served(<-r.done))
	}
	return errors.Join(errs...)
}

// served filters an accept loop's exit: a Shutdown that wins the race with
// Serve makes it return ErrClosed, which is the stop that was asked for.
func served(err error) error {
	if errors.Is(err, session.ErrClosed) {
		return nil
	}
	return err
}

// clientSession is the device end of one offload session, composed the way
// cmd/illixr-client does it: a TCP conn, the bridge handshake, a loader
// hosting the downlink and uplink plugins, and a span collector on the
// phonebook so uplinked frames carry trace refs.
type clientSession struct {
	conn    net.Conn
	cl      *bridge.Client
	loader  *runtime.Loader
	spans   *telemetry.SpanCollector
	imu     *runtime.Topic
	cam     *runtime.Topic
	poseSub *runtime.Subscription
}

// poseBuffer is the benchmark's fast-pose subscription depth: deep enough
// that the receiver never loses a pose it needs for an acknowledgement.
const poseBuffer = 8192

func helloFor(seed int64, label string) wire.Hello {
	return wire.Hello{App: label, Seed: seed, IMURateHz: imuRateHz, CamRateHz: camRateHz}
}

// attach builds the client runtime around an established bridge client.
func attach(conn net.Conn, cl *bridge.Client, spans *telemetry.SpanCollector) (*clientSession, error) {
	cs := &clientSession{conn: conn, cl: cl, spans: spans, loader: runtime.NewLoader()}
	ctx := cs.loader.Context()
	_ = ctx.Phonebook.Register(telemetry.TracerService, spans) // fresh phonebook: cannot collide
	cs.imu = ctx.Switchboard.GetTopic(runtime.TopicIMU)
	cs.cam = ctx.Switchboard.GetTopic(runtime.TopicCamera)
	// subscribe before the downlink starts so the first pose cannot be missed
	cs.poseSub = ctx.Switchboard.GetTopic(runtime.TopicFastPose).Subscribe(poseBuffer)
	for _, p := range []runtime.Plugin{cl.Downlink(), cl.Uplink()} {
		if err := cs.loader.Load(p); err != nil {
			cs.close()
			return nil, err
		}
	}
	return cs, nil
}

// connect dials addr, handshakes and attaches the client runtime.
func connect(addr string, hello wire.Hello, tr *tracer) (*clientSession, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	conn = tr.wrapConn(conn, roleClient)
	spans := telemetry.NewSpanCollector(0)
	cl, err := bridge.DialWith(conn, hello, bridge.DialOptions{Tracer: spans})
	if err != nil {
		return nil, err // DialWith closed the conn
	}
	return attach(conn, cl, spans)
}

// close says Bye, closes the conn and stops the client plugins.
func (cs *clientSession) close() {
	_ = cs.cl.Close() // the conn may already be severed; nothing to report
	cs.poseSub.Cancel()
	_ = cs.loader.Shutdown()
}

// poseWait bounds every wait for a covering pose: an exhausted port range
// or a wedged stack becomes a counted failure, never a hang.
const poseWait = 5 * time.Second

// awaitCover drains a fast-pose subscription until an event's T reaches
// want and returns that event's T and pose. timer is the caller's reusable
// timeout.
func awaitCover(sub *runtime.Subscription, want float64, timer *time.Timer) (float64, mathx.Pose, error) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(poseWait)
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return 0, mathx.Pose{}, errors.New("pose subscription closed")
			}
			if ev.T < want {
				continue
			}
			pose, ok := ev.Value.(mathx.Pose)
			if !ok {
				return ev.T, mathx.Pose{}, fmt.Errorf("fast-pose event carries %T", ev.Value)
			}
			return ev.T, pose, nil
		case <-timer.C:
			return 0, mathx.Pose{}, fmt.Errorf("no pose covering t=%v within %s", want, poseWait)
		}
	}
}

// contention reads the fleet's contended-lock counters.
func (st *stack) contention() (coord, shards float64) {
	for _, r := range st.replicas {
		shards += float64(r.srv.ShardContention())
	}
	return float64(st.coord.Contention()), shards
}

// publishIMU roots a trace for the sample, as the dataset player does,
// and publishes it on the client's IMU topic.
func (cs *clientSession) publishIMU(s sensors.IMUSample) {
	ref := cs.spans.Emit(core.CompIMU, 0, s.T, s.T)
	cs.imu.Publish(runtime.Event{T: s.T, Value: s, Trace: ref})
}

func (cs *clientSession) publishCamera(f sensors.CameraFrame) {
	ref := cs.spans.Emit(core.CompCamera, 0, f.T, f.T)
	cs.cam.Publish(runtime.Event{T: f.T, Value: f, Trace: ref})
}

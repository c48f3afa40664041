package node

import (
	"fmt"
	"net"
	"testing"
	"time"

	"illixr/internal/config"
	"illixr/internal/mathx"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
)

const (
	legsReused   = "illixr_fleet_gateway_legs_reused_total"
	dialFailures = "illixr_fleet_gateway_dial_failures_total"
)

func (r *lifecycleRig) wireLifecycle(i int) error {
	return wireSession(r.addr, i, r.samples, r.want)
}

// wireSession is one session through the gateway at addr, spoken at the
// wire level so the test sees the half-close: Hello, the samples up, the
// pose covering the last one back (bit-equal to want, a local
// integrator's), Bye, and the replica's answering Bye — which the gateway
// relays only after it has parked the leg.
func wireSession(addr string, i int, samples []sensors.IMUSample, want mathx.Pose) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	cr, cw := wire.NewReader(conn), wire.NewWriter(conn)
	defer cr.Release()
	defer cw.Release()
	hello := wire.Hello{Proto: wire.Version, App: "leg", Seed: int64(i), IMURateHz: 500, CamRateHz: 15}
	if err := cw.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: wire.AppendHello(nil, hello)}); err != nil {
		return err
	}
	if f, err := cr.ReadFrame(); err != nil || f.Type != wire.TypeWelcome {
		return fmt.Errorf("session %d: admission answered %v (%v)", i, f.Type, err)
	}
	for _, s := range samples {
		cw.Queue(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, s)})
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	for covered := len(samples) == 0; !covered; {
		f, err := cr.ReadFrame()
		if err != nil {
			return fmt.Errorf("session %d: awaiting the covering pose: %w", i, err)
		}
		if f.Type != wire.TypePose {
			continue
		}
		p, err := wire.DecodePose(f.Payload)
		if err != nil {
			return err
		}
		last := samples[len(samples)-1].T
		if covered = p.T >= last; covered && (p.T != last || p.Pose != want) {
			return fmt.Errorf("session %d: covering pose at t=%v is %+v, the local integrator's at t=%v %+v", i, p.T, p.Pose, last, want)
		}
	}
	if err := cw.WriteFrame(wire.Frame{Type: wire.TypeBye, Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})}); err != nil {
		return err
	}
	for {
		f, err := cr.ReadFrame()
		if err != nil {
			return fmt.Errorf("session %d: no answering Bye: %w", i, err)
		}
		if f.Type == wire.TypeBye {
			if b, _ := wire.DecodeBye(f.Payload); b.RetryAfterMs != 0 {
				return fmt.Errorf("session %d: answered with a drain Bye %+v", i, b)
			}
			return nil
		}
	}
}

// Sequential sessions through a gateway share one replica leg: every
// session's Bye parks it at both ends and the next admission takes it
// over, so the replica accepts exactly once.
func TestSequentialLifecyclesShareOneLeg(t *testing.T) {
	const n = 8
	r := newLifecycleRig(t, &Replica{})
	for i := 0; i < n; i++ {
		if err := r.wireLifecycle(i); err != nil {
			t.Fatal(err)
		}
	}
	r.quiesce(t)
	if got := r.accepts.accepted.Load(); got != 1 {
		t.Errorf("the replica accepted %d connections for %d sequential sessions, want 1", got, n)
	}
	if got := counter(r.gw.Registry, legsReused); got != n-1 {
		t.Errorf("%s = %d, want %d", legsReused, got, n-1)
	}
}

// A parked leg the replica has since idled out costs the next session a
// fresh dial and nothing else: no refusal, the replica stays Up, and no
// dial failure is counted.
func TestIdledOutLegIsRedialled(t *testing.T) {
	r := newLifecycleRig(t, &Replica{Net: config.NetParams{IdleTimeoutSec: 0.25}})
	if err := r.wireLifecycle(0); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the replica to close the waiting connection", func() bool {
		return r.accepts.closed.Load() == 1
	})
	if err := r.wireLifecycle(1); err != nil {
		t.Fatalf("the session after an idled-out leg: %v", err)
	}
	if got := r.accepts.accepted.Load(); got != 2 {
		t.Errorf("the replica accepted %d connections, want 2 (one fresh dial after the idle-out)", got)
	}
	if st := r.gw.Coord.StatusOf(0); st != fleet.Up {
		t.Errorf("replica status %v after a stale leg, want up", st)
	}
	if got := counter(r.gw.Registry, dialFailures); got != 0 {
		t.Errorf("%s = %d, want 0", dialFailures, got)
	}
	if got := counter(r.gw.Registry, legsReused); got != 0 {
		t.Errorf("%s = %d; the stale leg must not count as reused", legsReused, got)
	}
}

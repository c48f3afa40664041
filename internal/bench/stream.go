package bench

import (
	"context"
	"fmt"
	"net"
	"sync"

	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/node"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
)

// pipedFleet is the in-process cell the fleet, scale and replay soaks
// drive: session servers over one handler behind a node.Gateway whose
// relay legs are net.Pipe ends handed straight to the placed server.
type pipedFleet struct {
	gw   *node.Gateway
	srvs []*session.Server

	mu   sync.Mutex
	down map[int]bool // replicas crash has taken: the dialer refuses them
}

func pipeFleet(replicas int, fc fleet.Config, sc session.Config, h session.Handler) *pipedFleet {
	f := &pipedFleet{down: map[int]bool{}}
	for i := 0; i < replicas; i++ {
		f.srvs = append(f.srvs, session.NewServer(sc, h))
	}
	f.gw = &node.Gateway{Backends: make([]string, replicas), Fleet: fc,
		Dial: func(id int) (net.Conn, error) {
			f.mu.Lock()
			dead := f.down[id]
			f.mu.Unlock()
			if dead {
				return nil, fmt.Errorf("replica %d down", id)
			}
			c, s := net.Pipe()
			if f.srvs[id].HandleConn(s) == nil {
				_ = c.Close()
				return nil, fmt.Errorf("replica %d refused", id)
			}
			return c, nil
		}}
	if err := f.gw.Start(); err != nil {
		panic(err) // no file, listener or URL list in this gateway: nothing Start does can fail
	}
	return f
}

// crash kills replica id the way a process crash would: no dial reaches
// it again, its sessions are severed, the coordinator displaces them.
func (f *pipedFleet) crash(id int) {
	f.mu.Lock()
	f.down[id] = true
	f.mu.Unlock()
	f.srvs[id].Abort(nil)
	f.gw.Coord.KillReplica(id)
}

// dial hands the gateway one end of a pipe and returns the client's.
func (f *pipedFleet) dial() net.Conn {
	c, g := net.Pipe()
	f.gw.HandleConn(g)
	return c
}

// stop shuts the gateway, then the servers, down; it reports whether
// every one of them finished inside ctx.
func (f *pipedFleet) stop(ctx context.Context) bool {
	clean := f.gw.Close(ctx) == nil
	for _, s := range f.srvs {
		clean = s.Shutdown(ctx) == nil && clean
	}
	return clean
}

// soakHandler is the soaks' server side: it answers every IMU frame with
// a latest-wins pose, and a frame that does not decode ends the session.
type soakHandler struct{}

func (soakHandler) SessionStart(*session.Session) error { return nil }

func (soakHandler) SessionFrame(s *session.Session, f wire.Frame) error {
	if f.Type != wire.TypeIMU {
		return nil
	}
	sample, err := wire.DecodeIMU(f.Payload)
	if err != nil {
		return err
	}
	_ = s.Send(wire.Frame{Type: wire.TypePose,
		Payload: wire.AppendPose(nil, wire.Pose{T: sample.T})}, session.LatestWins)
	return nil
}

func (soakHandler) SessionEnd(*session.Session, error) {}

// handshake opens a hand-rolled wire client on conn: it writes hello and
// reads the answer. ok is false when the answer is not a decodable
// Welcome (refused with a Bye, or the conn died).
func handshake(conn net.Conn, hello wire.Hello) (r *wire.Reader, w *wire.Writer, wel wire.Welcome, ok bool) {
	r, w = wire.NewReader(conn), wire.NewWriter(conn)
	hello.Proto = wire.Version
	if w.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: wire.AppendHello(nil, hello)}) != nil {
		return r, w, wel, false
	}
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.TypeWelcome {
		return r, w, wel, false
	}
	wel, err = wire.DecodeWelcome(f.Payload)
	return r, w, wel, err == nil
}

// streamFrames is the soaks' wire client: handshake, drain the downlink
// in the background, write frame(0) … frame(n-1), say Bye, close conn.
// wrote < n means the stream was severed under the client: no Bye went
// out, and a caller holding wel.ResumeToken can redial and stream the
// rest. poses counts the pose frames drained. ok is false when the
// handshake got no Welcome (nothing was streamed).
func streamFrames(conn net.Conn, hello wire.Hello, n int, frame func(i int) wire.Frame) (wel wire.Welcome, wrote int, poses uint64, ok bool) {
	r, w, wel, ok := handshake(conn, hello)
	if !ok {
		_ = conn.Close()
		return wel, 0, 0, false
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				return
			}
			if f.Type == wire.TypePose {
				poses++
			}
		}
	}()
	for wrote < n && w.WriteFrame(frame(wrote)) == nil {
		wrote++
	}
	if wrote == n {
		_ = w.WriteFrame(wire.Frame{Type: wire.TypeBye, Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})})
	}
	_ = conn.Close()
	<-drained
	return wel, wrote, poses, true
}

package bench

import (
	"net"

	"illixr/internal/netxr/wire"
)

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

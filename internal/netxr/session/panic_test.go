package session

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
)

// A handler that panics on one session's Nth frame ends that session the
// way a handler error does — a drain Bye that names the panic, then
// SessionEnd — while the server and a second session keep running.
func TestHandlerPanicEndsOnlyItsSession(t *testing.T) {
	const n = 3
	var victim atomic.Uint64
	var frames atomic.Int64
	h := newCollect()
	h.onFrame = func(s *Session, f wire.Frame) error {
		if s.ID() == victim.Load() && frames.Add(1) == n {
			panic("boom on the victim's frame 3")
		}
		// echo, so the peer can see the session still answers
		return s.Send(wire.Frame{Type: wire.TypePong, Payload: f.Payload}, Reliable)
	}
	srv := NewServer(Config{}, h)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) }) // after the clients hung up

	open := func() (*wire.Reader, *wire.Writer, uint64) {
		client, server := net.Pipe()
		t.Cleanup(func() { _ = client.Close() })
		if srv.HandleConn(server) == nil {
			t.Fatal("conn refused")
		}
		r, w, welcome := clientHandshake(t, client)
		return r, w, welcome.Session
	}
	imu := func(w *wire.Writer, i int) {
		t.Helper()
		p := wire.AppendIMU(nil, sensors.IMUSample{T: float64(i)})
		if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: p}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	echoed := func(r *wire.Reader, i int) {
		t.Helper()
		f, err := r.ReadFrame()
		if err != nil || f.Type != wire.TypePong {
			t.Fatalf("answer to frame %d: %v %v, want its echo", i, f.Type, err)
		}
	}

	vr, vw, vid := open()
	victim.Store(vid)
	br, bw, bid := open()
	for i := 1; i < n; i++ {
		imu(vw, i)
		echoed(vr, i)
		imu(bw, i)
		echoed(br, i)
	}
	imu(vw, n) // panics the handler on the victim's reader
	f, err := vr.ReadFrame()
	if err != nil || f.Type != wire.TypeBye {
		t.Fatalf("after the panic: %v %v, want the drain Bye", f.Type, err)
	}
	bye, err := wire.DecodeBye(f.Payload)
	if err != nil || !strings.Contains(bye.Reason, "panic") || !strings.Contains(bye.Reason, "boom") {
		t.Fatalf("drain Bye %+v (%v): want a reason naming the panic", bye, err)
	}
	waitFor(t, func() bool { return h.endedCount() == 1 && srv.Len() == 1 })
	h.mu.Lock()
	endErr, ended := h.ended[vid]
	h.mu.Unlock()
	if !ended || endErr == nil || !strings.Contains(endErr.Error(), "boom") {
		t.Fatalf("SessionEnd(victim) = %v (called: %v), want the panic as its error", endErr, ended)
	}

	// the other session never noticed
	for i := n; i < n+5; i++ {
		imu(bw, i)
		echoed(br, i)
	}
	h.mu.Lock()
	_, gone := h.ended[bid]
	h.mu.Unlock()
	if gone {
		t.Fatal("the healthy session ended")
	}
}

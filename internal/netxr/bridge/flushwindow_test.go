package bridge

import (
	"context"
	"net"
	"testing"
	"time"

	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
)

// flushWriter is one of the stack's coalescing writers on a test bench:
// send puts n frames in front of the writer at once and returns when the
// far end has read them all; writes counts Write calls on the conn the
// writer under test owns.
type flushWriter struct {
	send   func(n int)
	writes func() int64
}

// readN reads n frames off conn's reader within the test deadline.
func readN(t *testing.T, conn net.Conn, r *wire.Reader, n int) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatalf("frame %d of %d never arrived: %v", i+1, n, err)
		}
	}
}

// sessionWriterBench: the replica's session writer, with the client not
// reading while the burst is queued (the synchronous pipe holds the
// writer inside its first Write, so the rest piles up behind it).
func sessionWriterBench(t *testing.T) flushWriter {
	srv := session.NewServer(session.Config{QueueLen: 8 * wire.FlushWindow, IdleTimeout: -1}, nopHandler{})
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	c, s := net.Pipe()
	t.Cleanup(func() { _ = c.Close() })
	counted := &countConn{Conn: s}
	sess := srv.HandleConn(counted)
	r, w := wire.NewReader(c), wire.NewWriter(c)
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "window"})}); err != nil {
		t.Fatal(err)
	}
	readN(t, c, r, 1) // Welcome
	return flushWriter{
		send: func(n int) {
			for i := 0; i < n; i++ {
				if err := sess.Send(wire.Frame{Type: wire.TypeQoE, Payload: []byte{byte(i)}}, session.Reliable); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			readN(t, c, r, n)
		},
		writes: counted.writes.Load,
	}
}

// gatewayBench: one relay direction of a live gateway whose client and
// replica are both played by the test, so a burst can arrive in a single
// read (one Write of n frames onto the synchronous pipe).
func gatewayBench(t *testing.T, uplink bool) flushWriter {
	coord := fleet.NewCoordinator(fleet.Config{ReplicaCapacity: 1})
	coord.AddReplica(0, nil)
	backGW, backReplica := net.Pipe()
	frontClient, frontGW := net.Pipe()
	back, front := &countConn{Conn: backGW}, &countConn{Conn: frontGW}
	gw := &fleet.Gateway{Coord: coord, Dial: func(int) (net.Conn, error) { return back, nil }}
	t.Cleanup(func() {
		_ = frontClient.Close()
		_ = backReplica.Close()
		_ = gw.Shutdown(context.Background())
	})
	gw.HandleConn(front)

	cr, cw := wire.NewReader(frontClient), wire.NewWriter(frontClient)
	rr, rw := wire.NewReader(backReplica), wire.NewWriter(backReplica)
	if err := cw.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "window"})}); err != nil {
		t.Fatal(err)
	}
	readN(t, backReplica, rr, 1) // the gateway's Hello
	if err := rw.WriteFrame(wire.Frame{Type: wire.TypeWelcome,
		Payload: wire.AppendWelcome(nil, wire.Welcome{Proto: wire.Version, Session: 1})}); err != nil {
		t.Fatal(err)
	}
	readN(t, frontClient, cr, 1) // the rewritten Welcome

	src, dst, dstConn, counted := cw, rr, backReplica, back
	if !uplink {
		src, dst, dstConn, counted = rw, cr, frontClient, front
	}
	return flushWriter{
		send: func(n int) {
			errc := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					src.Queue(wire.Frame{Type: wire.TypeQoE, Payload: []byte{byte(i)}})
				}
				errc <- src.Flush()
			}()
			readN(t, dstConn, dst, n)
			if err := <-errc; err != nil {
				t.Fatalf("burst write: %v", err)
			}
		},
		writes: counted.writes.Load,
	}
}

// clientUplinkBench: bridge.Client's uplink forwarder, with bursts
// published while the client's writer is held.
func clientUplinkBench(t *testing.T) flushWriter {
	rig := newUplinkRig(t, DialOptions{}, 0)
	next := 1
	return flushWriter{
		send: func(n int) {
			want := rig.log.len() + n
			rig.burst(func() { rig.publishIMU(next, next+n-1) })
			next += n
			waitCond(t, func() bool { return rig.log.len() == want })
		},
		writes: rig.conn.writes.Load,
	}
}

// Every writer in the offload stack follows one discipline with one
// number (DESIGN.md §15.3): queue while more frames are already waiting,
// flush on exhaustion or at wire.FlushWindow. So for each of them a lone
// frame is on the wire in its own Write without waiting for company, and
// a burst of four windows costs at most one Write per window plus the one
// the writer may already have been inside when the burst began.
func TestFlushWindowSharedAcrossWriters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bench func(t *testing.T) flushWriter
	}{
		{"session writer", sessionWriterBench},
		{"gateway uplink", func(t *testing.T) flushWriter { return gatewayBench(t, true) }},
		{"gateway downlink", func(t *testing.T) flushWriter { return gatewayBench(t, false) }},
		{"client uplink", clientUplinkBench},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw := tc.bench(t)
			base := fw.writes()
			fw.send(1)
			if w := fw.writes() - base; w != 1 {
				t.Fatalf("a lone frame took %d writes, want exactly 1", w)
			}
			const burst = 4 * wire.FlushWindow
			base = fw.writes()
			fw.send(burst)
			if w := fw.writes() - base; w > burst/wire.FlushWindow+1 {
				t.Fatalf("%d-frame burst took %d writes, want <= %d", burst, w, burst/wire.FlushWindow+1)
			}
		})
	}
}

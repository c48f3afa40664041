package session

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"illixr/internal/netxr/wire"
)

// Two producers share one session while its writer drains: one sends
// poses and reprojected frames LatestWins, alternating between the two
// slots, the other sends QoE frames Reliable. Every reliable frame
// arrives once and in order, each latest-wins stream arrives in
// increasing order and ends on its newest frame, and every latest-wins
// frame is either delivered or counted as displaced.
func TestSendLatestWinsAndReliableFromTwoGoroutines(t *testing.T) {
	const perSlot, reliable = 500, 500
	srv := NewServer(Config{QueueLen: reliable, IdleTimeout: -1}, allocNop{})
	defer srv.Shutdown(context.Background())
	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	if sess == nil {
		t.Fatal("conn refused")
	}
	r, _, _ := clientHandshake(t, client)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // latest-wins: pose i, then frame i
		defer wg.Done()
		var buf []byte
		for i := 1; i <= perSlot; i++ {
			for _, typ := range []wire.Type{wire.TypePose, wire.TypeFrame} {
				buf = wire.AppendPose(buf[:0], wire.Pose{T: float64(i)})
				if err := sess.Send(wire.Frame{Type: typ, Payload: buf}, LatestWins); err != nil {
					t.Errorf("%v %d: %v", typ, i, err)
					return
				}
			}
		}
	}()
	go func() { // reliable: QoE i carries i
		defer wg.Done()
		var buf []byte
		for i := 1; i <= reliable; i++ {
			buf = wire.AppendPose(buf[:0], wire.Pose{T: float64(i)})
			if err := sess.Send(wire.Frame{Type: wire.TypeQoE, Payload: buf}, Reliable); err != nil {
				t.Errorf("reliable %d: %v", i, err)
				return
			}
		}
	}()

	last := map[wire.Type]float64{}
	delivered := 0 // latest-wins frames read
	for last[wire.TypePose] < perSlot || last[wire.TypeFrame] < perSlot || last[wire.TypeQoE] < reliable {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("after %v: %v", last, err)
		}
		p, err := wire.DecodePose(f.Payload)
		if err != nil {
			t.Fatalf("%v payload: %v", f.Type, err)
		}
		switch f.Type {
		case wire.TypeQoE:
			if p.T != last[f.Type]+1 {
				t.Fatalf("reliable frame %v after %v: lost or reordered", p.T, last[f.Type])
			}
		case wire.TypePose, wire.TypeFrame:
			if p.T <= last[f.Type] {
				t.Fatalf("%v %v after %v: not latest-wins order", f.Type, p.T, last[f.Type])
			}
			delivered++
		default:
			t.Fatalf("unexpected %v", f.Type)
		}
		last[f.Type] = p.T
	}
	wg.Wait()
	if _, dropped, _, _ := sess.Stats(); uint64(delivered)+dropped != 2*perSlot {
		t.Fatalf("%d latest-wins frames delivered + %d displaced, want %d sent", delivered, dropped, 2*perSlot)
	}
	if n := sess.queueDepth(); n != 0 {
		t.Fatalf("%d frames still queued after every last frame arrived", n)
	}
}

// A frame type with no latest-wins slot is refused, not queued.
func TestLatestWinsSendNeedsASlot(t *testing.T) {
	srv := NewServer(Config{IdleTimeout: -1}, allocNop{})
	defer srv.Shutdown(context.Background())
	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	clientHandshake(t, client)
	err := sess.Send(wire.Frame{Type: wire.TypeQoE, Payload: []byte{1}}, LatestWins)
	if !errors.Is(err, errNoSlot) {
		t.Fatalf("LatestWins QoE: err %v, want errNoSlot", err)
	}
	if n := sess.queueDepth(); n != 0 {
		t.Fatalf("a refused frame was queued (%d)", n)
	}
}

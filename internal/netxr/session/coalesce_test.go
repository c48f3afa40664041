package session

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// TestCoalesceOrderingAtFlushWindow drives a session whose queues run
// many wire.FlushWindow batches deep, with the reliable and latest-wins
// producers racing on separate goroutines (run under -race by make
// check). The batched writer must preserve exactly the per-frame
// contract:
//   - reliable frames arrive in FIFO send order, none lost;
//   - latest-wins frames arrive in strictly increasing freshness
//     (a newer pose displaces an unsent older one, never reorders);
//   - delivered + displaced == sent, so displacement accounting holds.
func TestCoalesceOrderingAtFlushWindow(t *testing.T) {
	// many windows deep: 12.5 and 18.5 of them
	const reliableN = 12*wire.FlushWindow + wire.FlushWindow/2
	const poseN = 18*wire.FlushWindow + wire.FlushWindow/2

	h := newCollect()
	srv := NewServer(Config{
		QueueLen: reliableN + 8,
		Metrics:  telemetry.NewRegistry(),
	}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	if sess == nil {
		t.Fatal("conn refused")
	}
	r, _, _ := clientHandshake(t, client)

	// client side: drain everything until the Bye, recording the
	// order of each class
	var (
		relSeqs  []uint32
		poseSeqs []uint32
		readErr  error
		readDone = make(chan struct{})
	)
	go func() {
		defer close(readDone)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				readErr = err
				return
			}
			switch f.Type {
			case wire.TypeQoE:
				relSeqs = append(relSeqs, binary.LittleEndian.Uint32(f.Payload))
			case wire.TypePose:
				poseSeqs = append(poseSeqs, binary.LittleEndian.Uint32(f.Payload))
			case wire.TypeBye:
				return
			}
		}
	}()

	// server side: two producers race into the same session
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4)
		for i := 0; i < reliableN; i++ {
			binary.LittleEndian.PutUint32(buf, uint32(i))
			for {
				err := sess.Send(wire.Frame{Type: wire.TypeQoE, Payload: buf}, Reliable)
				if err == nil {
					break
				}
				if !IsRetryable(err) {
					t.Errorf("reliable send %d: %v", i, err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 4)
		for i := 0; i < poseN; i++ {
			binary.LittleEndian.PutUint32(buf, uint32(i))
			if err := sess.Send(wire.Frame{Type: wire.TypePose, Payload: buf}, LatestWins); err != nil {
				t.Errorf("pose send %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	sess.Drain("test done")
	select {
	case <-readDone:
	case <-time.After(10 * time.Second):
		t.Fatal("client never saw the drain Bye")
	}
	if readErr != nil {
		t.Fatalf("client read: %v", readErr)
	}
	// the writer's counter updates land after the flush the client
	// just observed: wait for full session teardown before reading
	deadline := time.Now().Add(5 * time.Second)
	for h.endedCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.endedCount() != 1 {
		t.Fatal("session never tore down after drain")
	}

	// reliable: complete and in FIFO order
	if len(relSeqs) != reliableN {
		t.Fatalf("reliable frames delivered = %d, want %d", len(relSeqs), reliableN)
	}
	for i, seq := range relSeqs {
		if seq != uint32(i) {
			t.Fatalf("reliable frame %d carries seq %d: FIFO order broken", i, seq)
		}
	}
	// latest-wins: strictly increasing freshness, newest delivered
	for i := 1; i < len(poseSeqs); i++ {
		if poseSeqs[i] <= poseSeqs[i-1] {
			t.Fatalf("pose order regressed: %d after %d", poseSeqs[i], poseSeqs[i-1])
		}
	}
	if n := len(poseSeqs); n == 0 || poseSeqs[n-1] != poseN-1 {
		t.Fatalf("newest pose never delivered: got %v tail", poseSeqs)
	}
	// displacement accounting: delivered + displaced == sent
	sent, dropped, _, _ := sess.Stats()
	if int(dropped)+len(poseSeqs) != poseN {
		t.Fatalf("accounting broken: %d delivered + %d displaced != %d sent",
			len(poseSeqs), dropped, poseN)
	}
	// sent counts the handshake Welcome, every delivered frame and
	// the terminal Bye
	wantSent := uint64(1 + reliableN + len(poseSeqs) + 1)
	if sent != wantSent {
		t.Fatalf("sent counter = %d, want %d", sent, wantSent)
	}
}

// TestSessionTable: every table operation — Len, the MaxSessions cap,
// listing, shutdown sweep — sees all of a 32-session population.
func TestSessionTable(t *testing.T) {
	const n = 32
	h := newCollect()
	srv := NewServer(Config{MaxSessions: n, Metrics: telemetry.NewRegistry()}, h)

	clients := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		client, server := net.Pipe()
		clients = append(clients, client)
		if srv.HandleConn(server) == nil {
			t.Fatalf("conn %d refused", i)
		}
		r, _, _ := clientHandshake(t, client) // synchronous: session is live
		go func() {                           // keep the pipe drained
			for {
				if _, err := r.ReadFrame(); err != nil {
					return
				}
			}
		}()
	}
	if srv.Len() != n {
		t.Fatalf("Len() = %d, want %d", srv.Len(), n)
	}

	// the 33rd connect is refused: MaxSessions is exact
	extraC, extraS := net.Pipe()
	defer extraC.Close()
	if srv.HandleConn(extraS) != nil {
		t.Fatal("session over MaxSessions admitted")
	}

	infos := srv.Sessions()
	if len(infos) != n {
		t.Fatalf("Sessions() lists %d, want %d", len(infos), n)
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].ID <= infos[i-1].ID {
			t.Fatal("Sessions() not sorted by id")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if srv.Len() != 0 {
		t.Fatalf("Len() after shutdown = %d, want 0", srv.Len())
	}
	if h.endedCount() != n {
		t.Fatalf("SessionEnd fired %d times, want %d", h.endedCount(), n)
	}
	for _, c := range clients {
		_ = c.Close()
	}
	_ = srv.ShardContention() // accessor is wired
}

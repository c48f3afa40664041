package session

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/wire"
)

// TestIdleJanitorTable drives the idle reaper through its interesting
// shapes: a silent session is reaped exactly once, a chatty one is
// never reaped, and reaping races cleanly against a handler goroutine
// hammering Send on the dying session (run under -race).
func TestIdleJanitorTable(t *testing.T) {
	cases := []struct {
		name string
		// keepAlive sends client pings often enough to defeat the timeout.
		keepAlive bool
		// hammer spins a goroutine calling sess.Send throughout the reap.
		hammer bool
		// wantReap is whether the session should be idle-reaped.
		wantReap bool
	}{
		{name: "silent-session-reaped-once", wantReap: true},
		{name: "active-session-survives", keepAlive: true, wantReap: false},
		{name: "reap-races-concurrent-send", hammer: true, wantReap: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newCollect()
			srv := NewServer(Config{IdleTimeout: 60 * time.Millisecond}, h)
			defer srv.Shutdown(context.Background())

			client, server := net.Pipe()
			defer client.Close()
			sess := srv.HandleConn(server)
			r, w, _ := clientHandshake(t, client)

			// drain the downlink so writes never wedge on the pipe
			go func() {
				for {
					if _, err := r.ReadFrame(); err != nil {
						return
					}
				}
			}()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			if tc.keepAlive {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tick := time.NewTicker(10 * time.Millisecond)
					defer tick.Stop()
					for i := uint64(0); ; i++ {
						select {
						case <-stop:
							return
						case <-tick.C:
							if err := w.WriteFrame(wire.Frame{Type: wire.TypePing,
								Payload: wire.AppendPing(nil, wire.Ping{Seq: i})}); err != nil {
								return
							}
						}
					}
				}()
			}
			if tc.hammer {
				wg.Add(1)
				go func() {
					defer wg.Done()
					payload := wire.AppendPose(nil, wire.Pose{T: 1})
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := sess.Send(wire.Frame{Type: wire.TypePose, Payload: payload}, LatestWins)
						if errors.Is(err, ErrClosed) {
							return
						}
					}
				}()
			}

			if tc.wantReap {
				waitFor(t, func() bool { return srv.Len() == 0 })
			} else {
				time.Sleep(250 * time.Millisecond) // > 4 reap ticks
				if srv.Len() != 0 {
					// still alive, as wanted
				} else {
					t.Fatal("active session was reaped")
				}
			}
			close(stop)
			wg.Wait()

			if !tc.wantReap {
				return
			}
			// reaped exactly once: one SessionEnd, with the idle cause
			waitFor(t, func() bool { return h.endedCount() == 1 })
			h.mu.Lock()
			defer h.mu.Unlock()
			if len(h.ended) != 1 {
				t.Fatalf("SessionEnd ran %d times, want 1", len(h.ended))
			}
			for _, err := range h.ended {
				if !errors.Is(err, errIdleTimeout) {
					t.Fatalf("end err = %v, want ErrIdleTimeout", err)
				}
			}
		})
	}
}

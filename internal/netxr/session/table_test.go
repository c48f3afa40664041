package session

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandleConnRacesTeardown: connections racing Shutdown or Abort are
// each either admitted and swept (SessionEnd fired before the teardown
// returned) or refused — none is left running, and under -race the
// WaitGroup never sees an Add concurrent with the teardown's Wait.
func TestHandleConnRacesTeardown(t *testing.T) {
	teardowns := map[string]func(*testing.T, *Server){
		"abort": func(_ *testing.T, s *Server) { s.Abort(nil) },
		"shutdown": func(t *testing.T, s *Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		},
	}
	for name, teardown := range teardowns {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 25; round++ {
				const conns = 16
				h := newCollect()
				srv := NewServer(Config{IdleTimeout: -1}, h)
				var admitted atomic.Int64
				var racers sync.WaitGroup
				start := make(chan struct{})
				for i := 0; i < conns; i++ {
					racers.Add(1)
					go func() {
						defer racers.Done()
						client, server := net.Pipe()
						defer client.Close()
						<-start
						if srv.HandleConn(server) != nil {
							admitted.Add(1)
						}
						// read the drain Bye (if any) until the server hangs up
						_, _ = io.Copy(io.Discard, client)
					}()
				}
				close(start)
				teardown(t, srv)
				// every admission that will ever happen has: later conns see closed
				racers.Wait()
				if got, want := h.endedCount(), int(admitted.Load()); got != want {
					t.Fatalf("round %d: %d sessions admitted, %d ended by teardown", round, want, got)
				}
				if srv.Len() != 0 {
					t.Fatalf("round %d: %d sessions outlived teardown", round, srv.Len())
				}
			}
		})
	}
}

// churnHandler signals every session end.
type churnHandler struct {
	allocNop
	ended chan struct{}
}

func (h churnHandler) SessionEnd(*Session, error) { h.ended <- struct{}{} }

// BenchmarkSessionTableChurn is one session's registration and teardown
// against a standing 256-session table, alone and from GOMAXPROCS
// goroutines at once — the instrument for any claim that the server's
// single lock should be split (DESIGN.md §15.2).
func BenchmarkSessionTableChurn(b *testing.B) {
	run := func(b *testing.B, parallel bool) {
		// buffered past the standing population, whose 256 ends arrive
		// unread when Abort sweeps it
		h := churnHandler{ended: make(chan struct{}, 512)}
		srv := NewServer(Config{IdleTimeout: -1, HandshakeTimeout: -1, MaxSessions: 1 << 20}, h)
		for i := 0; i < 256; i++ {
			c, s := net.Pipe()
			defer c.Close()
			srv.HandleConn(s)
		}
		lifecycle := func() {
			c, s := net.Pipe()
			if srv.HandleConn(s) == nil {
				b.Error("conn refused") // not Fatal: RunParallel calls this off the benchmark goroutine
				return
			}
			_ = c.Close() // handshake read fails: the session tears down
			<-h.ended
		}
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lifecycle()
				}
			})
		} else {
			for i := 0; i < b.N; i++ {
				lifecycle()
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(srv.ShardContention())/float64(b.N), "contended/op")
		srv.Abort(nil)
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("parallel", func(b *testing.B) { run(b, true) })
}

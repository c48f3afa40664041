package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/config"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// Config tunes the server. The zero value is usable; unset fields take
// the defaults of config.DefaultNet().
type Config struct {
	// MaxSessions caps concurrent sessions; excess connects are refused
	// with a Bye. 0 = default.
	MaxSessions int
	// QueueLen bounds each session's reliable send queue. 0 = default.
	QueueLen int
	// IdleTimeout closes sessions that stop sending. 0 = default,
	// negative = disabled.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the wait for the client Hello.
	HandshakeTimeout time.Duration
	// Admission, when non-nil, decides every handshake: it issues resume
	// tokens, restores resumed-session state, and refuses admission with
	// Retry-After hints. nil admits every session fresh with the session
	// id as its resume token.
	Admission Admission
	// Capture, when non-nil, records every frame crossing this server —
	// uplink after decode, downlink after the wire write — into one
	// binlog (DESIGN.md §13). The Writer is the single append path, so
	// reader- and writer-goroutine frames serialize in receipt order.
	// The caller that opened the Writer closes it after Shutdown/Abort
	// returns; late records are refused with ErrClosed, never lost
	// silently mid-file.
	Capture *binlog.Writer
	// Metrics receives illixr_netxr_* instruments; nil = uninstrumented.
	Metrics *telemetry.Registry
}

// Admission decides handshake outcomes; the fleet coordinator implements
// it (internal/netxr/fleet). Admit runs on the session's reader goroutine
// after the Hello is validated; the returned Welcome's Proto and Session
// fields are overwritten by the transport. Returning an error refuses the
// session — return an *AdmissionError to carry a Retry-After hint onto
// the refusal Bye.
type Admission interface {
	Admit(sessionID uint64, h wire.Hello) (wire.Welcome, error)
}

// AdmissionError is a transient admission refusal: the client should
// reconnect (with its resume token) after RetryAfter.
type AdmissionError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("session: admission refused: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// Unwrap lets errors.Is(err, errAdmission) hold.
func (e *AdmissionError) Unwrap() error { return errAdmission }

// Retryable marks the refusal transient when a retry hint is present.
func (e *AdmissionError) Retryable() bool { return e.RetryAfter > 0 }

func (c Config) withDefaults() Config {
	d := config.DefaultNet()
	if c.MaxSessions == 0 {
		c.MaxSessions = d.MaxSessions
	}
	if c.QueueLen == 0 {
		c.QueueLen = d.QueueLen
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = time.Duration(d.IdleTimeoutSec * float64(time.Second))
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

const (
	// writeTimeout bounds each batch write.
	writeTimeout = 10 * time.Second
	// retryAfter is the reconnect hint attached to capacity refusals and
	// the shutdown drain: the Bye tells the client to come back in this
	// long instead of ending terminally.
	retryAfter = time.Second
)

// Handler reacts to session lifecycle events. SessionStart and
// SessionFrame run on the session's reader goroutine; returning an error
// terminates the session, and so does a panic, which the reader recovers
// into the error the drain Bye carries: one session's handler cannot take
// the server or any other session down.
type Handler interface {
	// SessionStart runs after a successful handshake.
	SessionStart(s *Session) error
	// SessionFrame receives every decoded non-control frame.
	SessionFrame(s *Session, f wire.Frame) error
	// SessionEnd runs exactly once when the session terminates; err is
	// nil for a clean close.
	SessionEnd(s *Session, err error)
}

// Server accepts connections and runs one Session per client.
type Server struct {
	cfg     Config
	handler Handler
	m       *metrics

	// mu guards the closed flag, the listener and the session table, and
	// orders wg.Add against Shutdown/Abort: a session is either swept by
	// the teardown snapshot or refused by the closed check, never
	// neither. Held for a few statements at a time (DESIGN.md §15.2).
	mu       sync.Mutex
	closed   bool
	ln       net.Listener
	sessions map[uint64]*Session
	waiting  map[net.Conn]struct{} // kept conns between sessions (awaitHello)

	nextID     atomic.Uint64
	active     atomic.Int64 // len(sessions), readable without mu
	contention atomic.Uint64

	wg       sync.WaitGroup
	janitorC chan struct{}
	janitor  sync.Once
}

// NewServer builds a server with the given handler.
func NewServer(cfg Config, h Handler) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		handler:  h,
		sessions: map[uint64]*Session{},
		waiting:  map[net.Conn]struct{}{},
		janitorC: make(chan struct{}),
	}
	s.m = newMetrics(s.cfg.Metrics)
	return s
}

// lock takes mu, counting the acquisitions that had to wait — the
// measurement a many-core host would use to argue for splitting the
// table. The counter keeps the name its readers (dashboards, benchmark/)
// know: illixr_netxr_shard_contention_total.
func (s *Server) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contention.Add(1)
	s.m.shardContention.Inc()
	s.mu.Lock()
}

// ShardContention returns the cumulative count of contended
// acquisitions of the server lock.
func (s *Server) ShardContention() uint64 { return s.contention.Load() }

// Serve accepts on ln until Shutdown (or a listener error). It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.HandleConn(conn)
	}
}

// HandleConn adopts an established connection (Serve uses it; tests feed
// net.Pipe ends directly). Returns nil if the server is full or closed —
// the conn is then refused and closed.
func (s *Server) HandleConn(conn net.Conn) *Session {
	s.startJanitor()
	s.lock()
	if s.closed || len(s.sessions) >= s.cfg.MaxSessions {
		full := !s.closed
		s.mu.Unlock()
		if full {
			// written off the accept path because synchronous transports
			// (net.Pipe) block the write until the peer reads
			s.m.refused.Inc()
			go refuseFull(conn)
		} else {
			_ = conn.Close()
		}
		return nil
	}
	// Register in the same critical section as the closed check: a racing
	// Abort/Shutdown either sees this session in its sweep or refused it —
	// and wg.Add must not race a wg.Wait going 0→1 (undefined per
	// sync.WaitGroup). MaxSessions is exact for the same reason.
	sess, active := s.addLocked(conn)
	s.wg.Add(1)
	s.mu.Unlock()
	s.counted(active)

	go s.serveConn(sess)
	return sess
}

// refuseFull sends the capacity refusal, best-effort, and closes conn: the
// client sees why, and the Retry-After hint makes it an admission-control
// push-back rather than a hard error — it backs off and redials.
func refuseFull(conn net.Conn) {
	w := wire.NewWriter(conn)
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = w.WriteFrame(wire.Frame{Type: wire.TypeBye,
		Payload: wire.AppendBye(nil, wire.Bye{Reason: "server full", RetryAfterMs: wire.RetryAfterMs(retryAfter)})})
	w.Release()
	_ = conn.Close()
}

// addLocked registers a new session on conn. Caller holds mu and has
// checked closed and MaxSessions; it calls counted(active) after the
// unlock.
func (s *Server) addLocked(conn net.Conn) (*Session, int64) {
	id := s.nextID.Add(1)
	sess := &Session{id: id, conn: conn, srv: s, created: time.Now()}
	sess.cond.L = &sess.mu
	sess.fifo = sess.fifoBuf[:0]
	s.sessions[id] = sess
	return sess, s.active.Add(1)
}

func (s *Server) counted(active int64) {
	s.m.sessionsTotal.Inc()
	s.m.sessionsActive.Set(float64(active))
}

// serveConn owns one connection for as long as it is open: the session it
// was accepted for and, each time a session ends on the peer's Bye, the
// next one the peer opens on it. The reader outlives the sessions it
// serves, so nothing buffered between them is lost.
func (s *Server) serveConn(sess *Session) {
	defer s.wg.Done()
	r := wire.NewReader(sess.conn)
	defer r.Release()
	for sess != nil && s.run(sess, r) {
		sess = s.awaitHello(sess.conn, r)
	}
}

// readHello waits up to timeout (<= 0: no bound) for the frame that opens
// a session, which must decode as a Hello. Accepted and kept connections
// both start a session here.
func (s *Server) readHello(conn net.Conn, r *wire.Reader, timeout time.Duration) (wire.Hello, error) {
	if timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	}
	f, err := r.ReadFrame()
	if err != nil {
		return wire.Hello{}, fmt.Errorf("%w: %v", errHandshake, err)
	}
	if f.Type != wire.TypeHello {
		return wire.Hello{}, fmt.Errorf("%w: first frame is %v, want hello", errHandshake, f.Type)
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return wire.Hello{}, fmt.Errorf("%w: %v", errHandshake, err)
	}
	if s.cfg.Capture != nil {
		_ = s.cfg.Capture.Record(binlog.DirUp, f)
	}
	return h, nil
}

// awaitHello holds a kept connection until the peer's next Hello, for at
// most IdleTimeout. A waiting connection is not a session: it is outside
// the table, Len() and the session metrics, and the handler never hears
// of it. The Hello that ends the wait is admitted under the same closed
// and MaxSessions check as an accepted connection. nil means the
// connection was closed instead: idle, torn, refused, or the server
// stopped (stopAccepting closes waiting connections).
func (s *Server) awaitHello(conn net.Conn, r *wire.Reader) *Session {
	s.lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	s.waiting[conn] = struct{}{}
	s.mu.Unlock()

	h, err := s.readHello(conn, r, s.cfg.IdleTimeout)

	s.lock()
	delete(s.waiting, conn)
	if err != nil || s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.m.refused.Inc()
		refuseFull(conn)
		return nil
	}
	sess, active := s.addLocked(conn)
	sess.hello, sess.helloRead = h, true
	s.mu.Unlock()
	s.counted(active)
	return sess
}

// run owns one session's lifecycle: spawn the writer, drive the reader,
// tear down, unregister, notify the handler. It reports whether the
// connection was kept for another session; SessionEnd then runs on its
// own goroutine, so the peer's next Hello does not wait for it.
func (s *Server) run(sess *Session, r *wire.Reader) bool {
	sess.writer.Add(1)
	go sess.writeLoop()

	err := sess.readLoop(r)
	if err != nil {
		// terminal error: flush what's queued and tell the peer why —
		// every write is deadline-bounded, so a stalled peer cannot pin
		// the teardown. Admission refusals carry their Retry-After hint
		// onto the Bye so a refused client knows to come back.
		var ae *AdmissionError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			sess.drainRetry(err.Error(), wire.RetryAfterMs(ae.RetryAfter))
		} else {
			sess.drain(err.Error())
		}
	} else {
		// clean end-of-stream: flush what's queued, then close
		sess.drain("eof")
	}
	sess.writer.Wait()
	sess.close(err) // no-op if the writer already closed it

	s.lock()
	delete(s.sessions, sess.id)
	active := s.active.Add(-1)
	s.mu.Unlock()
	s.m.sessionsActive.Set(float64(active))

	if !sess.kept { // written by the writer before it returned
		s.handler.SessionEnd(sess, err)
		return false
	}
	// this goroutine still holds its own wg count, so the Add cannot
	// race a Wait that has seen zero
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handler.SessionEnd(sess, err)
	}()
	return true
}

// startJanitor launches the idle reaper on first use.
func (s *Server) startJanitor() {
	if s.cfg.IdleTimeout <= 0 {
		return
	}
	s.janitor.Do(func() {
		tick := s.cfg.IdleTimeout / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-s.janitorC:
					return
				case <-t.C:
					s.reapIdle()
				}
			}
		}()
	})
}

// reapIdle closes sessions that stopped sending. The lock is held only
// for the snapshot; Close runs outside it.
func (s *Server) reapIdle() {
	cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
	for _, sess := range s.snapshotSessions() {
		if last := sess.lastRecv.Load(); last > 0 && last < cutoff {
			sess.close(fmt.Errorf("%w after %s", errIdleTimeout, s.cfg.IdleTimeout))
		}
	}
}

func (s *Server) snapshotSessions() []*Session {
	s.lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// Len returns the number of live sessions.
func (s *Server) Len() int { return int(s.active.Load()) }

// Sessions implements Lister: a sorted snapshot of live sessions.
func (s *Server) Sessions() []Info {
	sessions := s.snapshotSessions()
	out := make([]Info, 0, len(sessions))
	for _, sess := range sessions {
		sent, dropped, recvd, decErrs := sess.Stats()
		out = append(out, Info{
			ID:           sess.ID(),
			Remote:       sess.remoteAddr(),
			App:          sess.Hello().App,
			UptimeSec:    sess.uptime().Seconds(),
			QueueDepth:   sess.queueDepth(),
			Sent:         sent,
			Dropped:      dropped,
			Received:     recvd,
			DecodeErrors: decErrs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// stopAccepting marks the server closed and stops the listener, the
// janitor and every kept connection waiting for a Hello. false means an
// earlier Shutdown/Abort already did.
func (s *Server) stopAccepting() bool {
	s.lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	ln := s.ln
	waiting := make([]net.Conn, 0, len(s.waiting))
	for c := range s.waiting {
		waiting = append(waiting, c)
	}
	s.mu.Unlock()
	close(s.janitorC)
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range waiting {
		_ = c.Close()
	}
	return true
}

// Shutdown stops accepting, drains every session (flushing queued frames
// and sending Bye), and waits for session goroutines up to the context
// deadline; stragglers are then force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.stopAccepting() {
		return nil
	}
	for _, sess := range s.snapshotSessions() {
		// a drained session is invited back: the fleet will re-place it
		sess.drainRetry("server shutdown", wire.RetryAfterMs(retryAfter))
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, sess := range s.snapshotSessions() {
			sess.close(ctx.Err())
		}
		<-done
		return ctx.Err()
	}
}

// errAborted is the cause sessions observe when their server crashes.
var errAborted = errors.New("session: server aborted")

// Abort kills the server the way a process crash would: the listener
// closes and every session dies immediately — no drain, no Bye, queued
// frames abandoned. Clients see a severed connection, exactly as they
// would from a dead replica. The fleet's crash-resume tests kill
// replicas with it; graceful teardown is Shutdown.
func (s *Server) Abort(cause error) {
	if cause == nil {
		cause = errAborted
	}
	if !s.stopAccepting() {
		return
	}
	for _, sess := range s.snapshotSessions() {
		sess.close(cause)
	}
	s.wg.Wait()
}

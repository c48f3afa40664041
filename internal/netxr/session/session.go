// Package session is the multi-session transport layer of the edge
// offload server: per-session reader/writer goroutines over any
// net.Conn, a versioned handshake, bounded send queues with a
// latest-wins drop policy for pose/frame traffic (stale XR data is
// worthless — delivering an old pose late is strictly worse than
// delivering the newest one now), backpressure accounting into
// illixr_netxr_* metrics, idle timeouts, and graceful drain on shutdown.
package session

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/wire"
	"illixr/internal/recycle"
	"illixr/internal/telemetry"
)

// Class selects the queueing discipline of an outbound frame.
type Class int

const (
	// Reliable frames (handshake, QoE, pings, bye) queue FIFO; when the
	// queue is full the *new* frame is rejected with ErrBackpressure so
	// the producer — not the consumer — absorbs the overload.
	Reliable Class = iota
	// LatestWins frames (poses, reprojected frames) keep one slot per
	// message type: a newer frame silently displaces an unsent older one.
	// Displacements are counted, never errors — dropping stale poses is
	// the correct behaviour, not a failure.
	LatestWins
)

// Session errors.
var (
	ErrClosed       = errors.New("session: closed")
	ErrBackpressure = errors.New("session: reliable send queue full")
	ErrIdleTimeout  = errors.New("session: idle timeout")
	ErrHandshake    = errors.New("session: handshake failed")
	ErrAdmission    = errors.New("session: admission refused")
)

// BackpressureError is the typed, retryable rejection of a reliable Send
// when the queue is full: the producer should back off and retry (or drop
// deliberately), never treat it as session death. errors.Is matches both
// ErrBackpressure and the generic retryable test below.
type BackpressureError struct {
	Session uint64
	Queued  int // frames waiting when the send was refused
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("session %d: reliable send queue full (%d queued)", e.Session, e.Queued)
}

// Unwrap lets errors.Is(err, ErrBackpressure) hold.
func (e *BackpressureError) Unwrap() error { return ErrBackpressure }

// Retryable marks the error transient.
func (e *BackpressureError) Retryable() bool { return true }

// IsRetryable reports whether a send/admission failure is transient: the
// caller should retry (after backoff) instead of tearing the session down.
func IsRetryable(err error) bool {
	if errors.Is(err, ErrBackpressure) {
		return true
	}
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// metrics bundles the per-server instruments (nil-safe when no registry
// is installed).
type metrics struct {
	sessionsActive  *telemetry.Gauge
	sessionsTotal   *telemetry.Counter
	recvFrames      *telemetry.Counter
	sentFrames      *telemetry.Counter
	sendDropped     *telemetry.Counter
	backpressure    *telemetry.Counter
	resumed         *telemetry.Counter
	refused         *telemetry.Counter
	decodeErrors    *telemetry.Counter
	bytesIn         *telemetry.Counter
	bytesOut        *telemetry.Counter
	queueDepth      *telemetry.Gauge
	shardContention *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	n := func(name string) string { return telemetry.MetricName("netxr", name) }
	return &metrics{
		sessionsActive:  reg.Gauge(n("sessions_active")),
		sessionsTotal:   reg.Counter(n("sessions_total")),
		recvFrames:      reg.Counter(n("recv_frames_total")),
		sentFrames:      reg.Counter(n("sent_frames_total")),
		sendDropped:     reg.Counter(n("send_dropped_total")),
		backpressure:    reg.Counter(n("backpressure_total")),
		resumed:         reg.Counter(n("sessions_resumed_total")),
		refused:         reg.Counter(n("admission_refused_total")),
		decodeErrors:    reg.Counter(n("decode_errors_total")),
		bytesIn:         reg.Counter(n("bytes_in_total")),
		bytesOut:        reg.Counter(n("bytes_out_total")),
		queueDepth:      reg.Gauge(n("queue_depth")),
		shardContention: reg.Counter(n("shard_contention_total")),
	}
}

// Session is one connected client: a reader goroutine decoding frames
// into the handler and a writer goroutine draining the send queues.
// Send is safe from any goroutine.
type Session struct {
	id      uint64
	conn    net.Conn
	srv     *Server
	hello   wire.Hello
	created time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	fifo     []wire.Frame
	slots    map[wire.Type]wire.Frame
	slotSeq  []wire.Type // arrival order of occupied slots (drain order)
	closed   bool
	closeErr error
	drainReq bool   // close the connection once the queues are empty
	byeSent  bool   // terminal Bye already handed to the writer
	byeWhy   string // reason carried by the terminal Bye
	byeRetry uint32 // Retry-After hint carried by the terminal Bye (ms)
	peerBye  bool   // the peer's Bye ended the session: keep the conn
	kept     bool   // closed with both Byes on the wire, the conn left open

	helloRead bool // hello arrived before the session existed (awaitHello)

	lastRecv atomic.Int64 // unix nanos of the last decoded frame

	sent         atomic.Uint64
	dropped      atomic.Uint64
	received     atomic.Uint64
	decodeErrors atomic.Uint64
}

// ID returns the server-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Hello returns the client's handshake message.
func (s *Session) Hello() wire.Hello { return s.hello }

// RemoteAddr reports the peer address.
func (s *Session) RemoteAddr() string {
	if a := s.conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

// Uptime is the session age.
func (s *Session) Uptime() time.Duration { return time.Since(s.created) }

// Stats returns the cumulative send/receive accounting.
func (s *Session) Stats() (sent, dropped, received, decodeErrs uint64) {
	return s.sent.Load(), s.dropped.Load(), s.received.Load(), s.decodeErrors.Load()
}

// QueueDepth returns the current number of queued outbound frames.
func (s *Session) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fifo) + len(s.slotSeq)
}

// Send enqueues one outbound frame under the given class.
func (s *Session) Send(f wire.Frame, class Class) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.drainReq {
		return ErrClosed
	}
	if class != LatestWins && len(s.fifo) >= s.srv.cfg.QueueLen {
		s.dropped.Add(1)
		s.srv.m.sendDropped.Inc()
		s.srv.m.backpressure.Inc()
		return &BackpressureError{Session: s.id, Queued: len(s.fifo)}
	}
	// The payload escapes to the writer goroutine: copy it into a recycled
	// buffer so callers may reuse their encode buffers. The writer returns
	// the buffer to the pool after the wire write (the rejection checks
	// above run first so a refused frame never touches the pool).
	if len(f.Payload) > 0 {
		buf := recycle.Bytes.Get(len(f.Payload))
		copy(buf, f.Payload)
		f.Payload = buf
	}
	switch class {
	case LatestWins:
		if old, occupied := s.slots[f.Type]; occupied {
			recycle.Bytes.Put(old.Payload) // displaced before reaching the wire
			s.slots[f.Type] = f
			s.dropped.Add(1)
			s.srv.m.sendDropped.Inc()
		} else {
			s.slots[f.Type] = f
			s.slotSeq = append(s.slotSeq, f.Type)
		}
	default:
		s.fifo = append(s.fifo, f)
	}
	s.srv.m.queueDepth.Set(float64(len(s.fifo) + len(s.slotSeq)))
	s.cond.Signal()
	return nil
}

// Drain asks the writer to flush everything queued, send a terminal Bye,
// and then close the connection. Used by graceful shutdown. Drain is
// idempotent: the first call wins the reason; later Drain or Close calls —
// including after the drain deadline has force-closed the session — are
// no-ops and can never re-arm a second Bye (the byeSent latch is checked
// by the writer, never reset).
func (s *Session) Drain(reason string) { s.DrainRetry(reason, 0) }

// DrainRetry is Drain with a Retry-After hint: a non-zero retryMs tells
// the client the disconnect is transient (replica drain, admission
// refusal) and it should reconnect with its resume token after at least
// that many milliseconds. Same idempotence contract as Drain.
func (s *Session) DrainRetry(reason string, retryMs uint32) {
	s.mu.Lock()
	if s.closed || s.drainReq {
		// already draining or gone: the first reason and hint stand
		s.mu.Unlock()
		return
	}
	s.drainReq = true
	s.byeWhy = reason
	s.byeRetry = retryMs
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close terminates the session immediately, abandoning queued frames.
// Abandoned payloads go back to the buffer pool: the writer can no longer
// take them once closed is set.
func (s *Session) Close(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.closeErr = cause
	for i := range s.fifo {
		recycle.Bytes.Put(s.fifo[i].Payload)
		s.fifo[i] = wire.Frame{}
	}
	s.fifo = s.fifo[:0]
	for t, f := range s.slots {
		recycle.Bytes.Put(f.Payload)
		delete(s.slots, t)
	}
	s.slotSeq = s.slotSeq[:0]
	s.cond.Broadcast()
	s.mu.Unlock()
	_ = s.conn.Close()
}

// Err returns the terminal error after close (nil for a clean close).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// drainByeTimeout bounds the write of the terminal drain Bye: a peer
// that has stopped reading must not pin session teardown for the full
// writeTimeout.
const drainByeTimeout = time.Second

// nextBatch blocks until at least one frame is queued, then pops up to
// wire.FlushWindow frames in send order — the whole FIFO first, then
// latest-wins slots in arrival order. If a drain is pending and the batch has room, the terminal Bye
// rides the same batch (terminal=true). ok=false means exit. The flush
// "tick" is queue exhaustion: a lone frame on a quiet session flushes
// immediately, so coalescing adds zero latency and no wall-clock timer
// (virtual-time safe; DESIGN.md §15).
func (s *Session) nextBatch(batch []wire.Frame) (out []wire.Frame, ok, terminal bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return batch, false, false
		}
		for len(batch) < wire.FlushWindow && len(s.fifo) > 0 {
			batch = append(batch, s.fifo[0])
			copy(s.fifo, s.fifo[1:])
			s.fifo[len(s.fifo)-1] = wire.Frame{}
			s.fifo = s.fifo[:len(s.fifo)-1]
		}
		for len(batch) < wire.FlushWindow && len(s.slotSeq) > 0 {
			t := s.slotSeq[0]
			copy(s.slotSeq, s.slotSeq[1:])
			s.slotSeq = s.slotSeq[:len(s.slotSeq)-1]
			batch = append(batch, s.slots[t])
			delete(s.slots, t)
		}
		if s.drainReq && !s.byeSent && len(batch) < wire.FlushWindow {
			// the queues are empty (or the batch is full — then the Bye
			// waits for the next batch): append the terminal Bye, on a
			// recycled payload the writer puts back like any other
			if len(s.fifo) == 0 && len(s.slotSeq) == 0 {
				s.byeSent = true
				batch = append(batch, wire.Frame{Type: wire.TypeBye,
					Payload: wire.AppendBye(recycle.Bytes.Get(64)[:0], wire.Bye{Reason: s.byeWhy, RetryAfterMs: s.byeRetry})})
				return batch, true, true
			}
		}
		if len(batch) > 0 {
			return batch, true, false
		}
		if s.drainReq && s.byeSent {
			return batch, false, false // flushed everything, incl. the Bye
		}
		s.cond.Wait()
	}
}

// writeLoop drains the queues onto the wire, up to wire.FlushWindow
// frames per wakeup coalesced into one buffered write.
func (s *Session) writeLoop(done chan<- struct{}) {
	defer close(done)
	w := wire.NewWriter(s.conn)
	defer w.Release()
	batch := make([]wire.Frame, 0, wire.FlushWindow)
	for {
		var ok, terminal bool
		batch, ok, terminal = s.nextBatch(batch[:0])
		if !ok {
			s.closeDrained()
			return
		}
		timeout := writeTimeout
		if terminal {
			timeout = drainByeTimeout
		}
		_ = s.conn.SetWriteDeadline(time.Now().Add(timeout))
		before := w.Bytes()
		for _, f := range batch {
			w.Queue(f)
		}
		err := w.Flush()
		if err == nil && s.srv.cfg.Capture != nil {
			// downlink tap: after the batch hit the wire, before the
			// payloads return to the pool — in batch order, so the binlog
			// sees exactly the wire order. The Writer's lock is the single
			// append path shared with the reader goroutine's uplink tap
			// (DESIGN.md §13).
			for _, f := range batch {
				_ = s.srv.cfg.Capture.Record(binlog.DirDown, f)
			}
		}
		for i := range batch {
			recycle.Bytes.Put(batch[i].Payload) // wire.Writer copied it
			batch[i] = wire.Frame{}
		}
		if err != nil {
			s.Close(fmt.Errorf("session %d: write: %w", s.id, err))
			return
		}
		s.sent.Add(uint64(len(batch)))
		s.srv.m.sentFrames.Add(len(batch))
		s.srv.m.bytesOut.Add(int(w.Bytes() - before))
	}
}

// closeDrained closes a drained session once its terminal Bye is on the
// wire (the queues are empty by then). The connection closes with it
// unless the session ended on the peer's Bye: then both ends have said
// Bye on a frame boundary and the connection is kept for the peer's next
// Hello (Server.awaitHello). A Close that got here first owns the conn.
func (s *Session) closeDrained() {
	s.mu.Lock()
	if !s.drainReq || s.closed {
		s.mu.Unlock()
		return
	}
	s.closed, s.kept = true, s.peerBye
	s.cond.Broadcast()
	s.mu.Unlock()
	if !s.kept {
		_ = s.conn.Close()
	}
}

// readLoop performs the handshake and then decodes frames from r into
// the handler until the connection ends or the peer says Bye.
func (s *Session) readLoop(r *wire.Reader) error {
	if err := s.handshake(r); err != nil {
		return err
	}
	if err := s.srv.handler.SessionStart(s); err != nil {
		return err
	}
	for {
		before := r.Bytes()
		f, err := r.ReadFrame()
		if err != nil {
			if err == io.EOF {
				return nil // clean close on a frame boundary
			}
			if errors.Is(err, net.ErrClosed) || s.isClosed() {
				return s.Err()
			}
			s.decodeErrors.Add(1)
			s.srv.m.decodeErrors.Inc()
			return fmt.Errorf("session %d: decode: %w", s.id, err)
		}
		s.lastRecv.Store(time.Now().UnixNano())
		s.received.Add(1)
		s.srv.m.recvFrames.Inc()
		s.srv.m.bytesIn.Add(int(r.Bytes() - before))
		if s.srv.cfg.Capture != nil {
			// uplink tap: f.Payload aliases the reader's buffer, but Record
			// copies synchronously before returning, so the alias is safe.
			_ = s.srv.cfg.Capture.Record(binlog.DirUp, f)
		}
		switch f.Type {
		case wire.TypePing:
			// wire-level RTT probe: echo without involving the handler
			p, perr := wire.DecodePing(f.Payload)
			if perr != nil {
				s.decodeErrors.Add(1)
				s.srv.m.decodeErrors.Inc()
				return fmt.Errorf("session %d: ping: %w", s.id, perr)
			}
			_ = s.sendScratch(wire.TypePong, wire.AppendPing(recycle.Bytes.Get(32)[:0], p))
		case wire.TypeBye:
			s.mu.Lock()
			s.peerBye = true
			s.mu.Unlock()
			return nil
		default:
			if err := s.srv.handler.SessionFrame(s, f); err != nil {
				return err
			}
		}
	}
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handshake expects a Hello as the very first frame (unless awaitHello
// already read it) and answers Welcome. When an Admission is configured
// it decides the Welcome — issuing resume tokens, restoring snapshots for
// reconnecting clients, or refusing with a Retry-After hint (the refusal
// rides the terminal drain Bye).
func (s *Session) handshake(r *wire.Reader) error {
	h := s.hello
	if !s.helloRead {
		var err error
		if h, err = s.srv.readHello(s.conn, r, s.srv.cfg.HandshakeTimeout); err != nil {
			return err
		}
	}
	if h.Proto != wire.Version {
		// the drain Bye the server sends on teardown carries this reason
		return fmt.Errorf("%w: client speaks v%d, server v%d", ErrHandshake, h.Proto, wire.Version)
	}
	s.hello = h
	s.lastRecv.Store(time.Now().UnixNano())
	welcome := wire.Welcome{Proto: wire.Version, Session: s.id, ResumeToken: s.id}
	if adm := s.srv.cfg.Admission; adm != nil {
		w, aerr := adm.Admit(s.id, h)
		if aerr != nil {
			s.srv.m.refused.Inc()
			return aerr
		}
		welcome = w
		// the transport owns these fields regardless of the admission
		welcome.Proto = wire.Version
		welcome.Session = s.id
	}
	if welcome.Resumed {
		s.srv.m.resumed.Inc()
	}
	return s.sendScratch(wire.TypeWelcome, wire.AppendWelcome(recycle.Bytes.Get(128)[:0], welcome))
}

// sendScratch sends a control frame encoded into a recycled buffer and
// gives the buffer back: Send has copied the payload by then.
func (s *Session) sendScratch(t wire.Type, payload []byte) error {
	err := s.Send(wire.Frame{Type: t, Payload: payload}, Reliable)
	recycle.Bytes.Put(payload)
	return err
}

// Info is the introspection snapshot of one live session (the /sessions
// debug endpoint's row).
type Info struct {
	ID           uint64  `json:"id"`
	Remote       string  `json:"remote"`
	App          string  `json:"app"`
	UptimeSec    float64 `json:"uptime_sec"`
	QueueDepth   int     `json:"queue_depth"`
	Sent         uint64  `json:"sent"`
	Dropped      uint64  `json:"dropped"`
	Received     uint64  `json:"received"`
	DecodeErrors uint64  `json:"decode_errors"`
}

// Lister is the read-only view the debug endpoint consumes.
type Lister interface {
	Sessions() []Info
}

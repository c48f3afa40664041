package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/recycle"
	"illixr/internal/telemetry"
)

// ackEvery is how many uplink frames the gateway relays between Ack
// checkpoints into the coordinator's resume registry. Acks count only
// FLUSHED frames: a frame sitting in an unflushed batch has not reached
// the replica, and acking it would let a resume skip it.
const ackEvery = 64

// dialAttempts bounds placement retries when a picked replica fails to
// dial — each failure marks that replica Down and re-Picks.
const dialAttempts = 3

// Gateway trace-stitching constants: the gateway's span collector
// allocates ids from GatewayIDBase — disjoint from the client's low
// range and from every replica session's sessionID<<40 range (which
// stays below 1<<62 for the first ~4M sessions) — so gateway hop spans
// merge collision-free into a stitched cross-node trace
// (internal/telemetry/stitch, DESIGN.md §12).
const (
	// CompGatewayUp and CompGatewayDown name the gateway's relay hop
	// spans in stitched traces.
	CompGatewayUp   = "gw_uplink"
	CompGatewayDown = "gw_downlink"
	// GatewayIDBase is the gateway collector's span-id floor.
	GatewayIDBase = uint64(1) << 62
)

// Gateway fronts the fleet: clients dial it, it places each session on
// a replica via the coordinator and then relays frames both ways. The
// relay is frame-level, not byte-level, because the gateway must own
// the handshake — it intercepts the client Hello, dials the chosen
// replica with a fresh (resume-stripped) Hello, and rewrites the
// replica's Welcome with the fleet's resume token, epoch and ack
// snapshot. Replicas stay resume-ignorant; all survivability state
// lives in the coordinator, which is exactly why it outlives them.
//
// Failure mapping, client's view:
//   - no replica available / admission refused → Bye with Retry-After
//   - replica dies mid-session → connection drops, the client redials
//     the gateway with its resume token and lands on a survivor
//   - replica drains → its Bye (Retry-After attached) is relayed
type Gateway struct {
	// Coord places sessions and owns resume state. Required.
	Coord *Coordinator
	// Dial opens a connection to a replica. Required.
	Dial func(replica int) (net.Conn, error)
	// HandshakeTimeout bounds the client Hello wait and the replica
	// handshake (0 = 5s).
	HandshakeTimeout time.Duration
	// Metrics receives illixr_fleet_* gateway instruments; nil = off.
	Metrics *telemetry.Registry
	// Spans, when installed, records one hop span per relayed traced
	// frame (gw_uplink / gw_downlink), parenting the incoming frame's
	// span and rewriting the relayed frame's trace ref — so a stitched
	// trace shows the gateway hop between client and replica. The
	// collector's id base is raised to GatewayIDBase on first use.
	Spans *telemetry.SpanCollector
	// Record, when non-nil, captures the gateway's client-facing
	// traffic — every frame read from (DirUp) or written to (DirDown)
	// any relayed client, refusal Byes included — into one binlog
	// (DESIGN.md §13). Uplink frames are recorded as the client sent
	// them (before the hop-span trace rewrite); downlink frames as
	// delivered (after the Welcome rewrite). All relay goroutines share
	// the Writer's single append path; the process that opened it
	// closes it after Shutdown returns.
	Record *binlog.Writer

	initOnce  sync.Once
	start     time.Time // admission clock origin: the first connection
	relayed   *telemetry.Counter
	dialFail  *telemetry.Counter
	protoErrs *telemetry.Counter

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func (g *Gateway) init() {
	g.initOnce.Do(func() {
		g.relayed = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_frames_relayed_total"))
		g.dialFail = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_dial_failures_total"))
		g.protoErrs = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_protocol_errors_total"))
		g.Spans.SetIDBase(GatewayIDBase) // nil-safe
		if g.HandshakeTimeout == 0 {
			g.HandshakeTimeout = 5 * time.Second
		}
		g.start = time.Now()
	})
}

// now is the admission clock: wall seconds since the first connection.
func (g *Gateway) now() float64 { return time.Since(g.start).Seconds() }

// Serve accepts client connections on ln until Shutdown. It blocks.
func (g *Gateway) Serve(ln net.Listener) error {
	g.init()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return session.ErrClosed
	}
	g.ln = ln
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		g.HandleConn(conn)
	}
}

// HandleConn adopts one client connection (tests feed pipe ends
// directly) and relays it asynchronously.
func (g *Gateway) HandleConn(conn net.Conn) {
	g.init()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		_ = conn.Close()
		return
	}
	if g.conns == nil {
		g.conns = map[net.Conn]struct{}{}
	}
	g.conns[conn] = struct{}{}
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		g.relay(conn)
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}()
}

// Shutdown stops accepting and closes every relayed connection, then
// waits for the relay goroutines up to the context deadline.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ln := g.ln
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// refuse sends a terminal Bye to the client, best-effort. The payload
// builds onto a recycled buffer: refusal storms (a full fleet refusing
// thousands of redials) must not allocate per connection.
func (g *Gateway) refuse(conn net.Conn, w *wire.Writer, reason string, retry time.Duration) {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	buf := recycle.Bytes.Get(64)[:0]
	bye := wire.Frame{Type: wire.TypeBye,
		Payload: wire.AppendBye(buf, wire.Bye{Reason: reason, RetryAfterMs: uint32(retry.Milliseconds())})}
	if err := w.WriteFrame(bye); err == nil && g.Record != nil {
		_ = g.Record.Record(binlog.DirDown, bye)
	}
	recycle.Bytes.Put(bye.Payload)
	_ = conn.Close()
}

// protocolError refuses a client whose very first frame was not a valid
// Hello (malformed, wrong type, or handshake timeout): instead of the
// silent close a misbehaving client used to get, it receives a terminal
// Bye naming the violation — no Retry-After hint, because redialing
// with the same bytes cannot help — and the flight recorder and the
// gateway_protocol_errors_total counter keep the evidence.
func (g *Gateway) protocolError(conn net.Conn, w *wire.Writer, detail string) {
	g.protoErrs.Inc()
	g.Coord.cfg.Events.RecordAt(g.now(), telemetry.EventRefuse, "gateway", "protocol error: "+detail)
	g.refuse(conn, w, "protocol error", 0)
}

// place picks a replica and dials it, marking dial failures Down and
// re-picking, up to dialAttempts.
func (g *Gateway) place(now float64, h wire.Hello) (int, net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		id, err := g.Coord.Pick(now, h)
		if err != nil {
			return -1, nil, err
		}
		conn, err := g.Dial(id)
		if err == nil {
			return id, conn, nil
		}
		// a replica that refuses a dial is treated as crashed: mark it
		// Down so placement stops routing there, and try the next one.
		g.dialFail.Inc()
		g.Coord.cfg.Events.RecordAt(now, telemetry.EventDialFail, replicaNode(id), err.Error())
		g.Coord.SetStatus(id, Down)
		lastErr = fmt.Errorf("fleet: dial replica %d: %w", id, err)
	}
	return -1, nil, lastErr
}

// relay runs one client's full lifecycle on the calling goroutine.
func (g *Gateway) relay(client net.Conn) {
	defer func() { _ = client.Close() }()
	// released after the relay's last read and write: the deferred calls
	// run once both legs have returned (wg.Wait below)
	cr, cw := wire.NewReader(client), wire.NewWriter(client)
	defer cr.Release()
	defer cw.Release()

	// 1. client Hello
	_ = client.SetReadDeadline(time.Now().Add(g.HandshakeTimeout))
	f, err := cr.ReadFrame()
	if err != nil {
		g.protocolError(client, cw, "hello read: "+err.Error())
		return
	}
	if f.Type != wire.TypeHello {
		g.protocolError(client, cw, "first frame is "+f.Type.String())
		return
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		g.protocolError(client, cw, "hello decode: "+err.Error())
		return
	}
	if g.Record != nil {
		_ = g.Record.Record(binlog.DirUp, f)
	}
	_ = client.SetReadDeadline(time.Time{})
	helloTrace := f.Trace

	// 2. place + dial
	now := g.now()
	replicaID, backend, err := g.place(now, hello)
	if err != nil {
		retry := g.Coord.cfg.RetryAfter
		if errors.Is(err, ErrNoReplica) {
			g.refuse(client, cw, "fleet full", retry)
		} else {
			g.refuse(client, cw, "fleet unavailable", retry)
		}
		return
	}
	defer func() { _ = backend.Close() }()
	br, bw := wire.NewReader(backend), wire.NewWriter(backend)
	defer br.Release()
	defer bw.Release()

	// 3. handshake the replica with a resume-stripped Hello: the replica
	// admits it as a brand-new session; resume is a fleet-level fiction.
	backendHello := hello
	backendHello.ResumeToken, backendHello.LastSeq = 0, 0
	hbuf := wire.AppendHello(recycle.Bytes.Get(128)[:0], backendHello)
	err = bw.WriteFrame(wire.Frame{Type: wire.TypeHello, Trace: helloTrace, Payload: hbuf})
	recycle.Bytes.Put(hbuf)
	if err != nil {
		g.refuse(client, cw, "fleet unavailable", g.Coord.cfg.RetryAfter)
		return
	}
	_ = backend.SetReadDeadline(time.Now().Add(g.HandshakeTimeout))
	bf, err := br.ReadFrame()
	if err != nil {
		g.refuse(client, cw, "fleet unavailable", g.Coord.cfg.RetryAfter)
		return
	}
	_ = backend.SetReadDeadline(time.Time{})
	if bf.Type == wire.TypeBye {
		// replica-level refusal (e.g. its own MaxSessions): relay the
		// push-back as-is — the hint tells the client when to come back.
		b, _ := wire.DecodeBye(bf.Payload)
		if b.RetryAfterMs == 0 {
			b.RetryAfterMs = uint32(g.Coord.cfg.RetryAfter.Milliseconds())
		}
		g.refuse(client, cw, b.Reason, time.Duration(b.RetryAfterMs)*time.Millisecond)
		return
	}
	if bf.Type != wire.TypeWelcome {
		g.refuse(client, cw, "fleet protocol error", 0)
		return
	}
	backendWelcome, err := wire.DecodeWelcome(bf.Payload)
	if err != nil {
		g.refuse(client, cw, "fleet protocol error", 0)
		return
	}

	// 4. commit the placement; this can still refuse (the replica filled
	// up between Pick and now, or a resume burst is in flight).
	welcome, err := g.Coord.AdmitOn(g.now(), replicaID, backendWelcome.Session, hello)
	if err != nil {
		var ae *session.AdmissionError
		if errors.As(err, &ae) {
			g.refuse(client, cw, ae.Reason, ae.RetryAfter)
		} else {
			g.refuse(client, cw, err.Error(), 0)
		}
		return
	}
	welcome.Proto = wire.Version
	wf := wire.Frame{Type: wire.TypeWelcome, Trace: bf.Trace,
		Payload: wire.AppendWelcome(recycle.Bytes.Get(128)[:0], welcome)}
	err = cw.WriteFrame(wf)
	if err == nil && g.Record != nil {
		_ = g.Record.Record(binlog.DirDown, wf)
	}
	recycle.Bytes.Put(wf.Payload)
	if err != nil {
		return
	}
	token := welcome.ResumeToken
	baseSeq := welcome.LastAckSeq

	// 5. relay, zero-copy (DESIGN.md §15): after the handshake the
	// gateway never decodes a payload again. ReadRaw peeks type and
	// trace from the fixed header and hands over the whole encoded
	// frame; the only rewrite is the hop-span trace (SetTrace patches
	// the header and CRC in place); QueueRaw passes the bytes through
	// the writer's buffer, and up to wire.FlushWindow frames ride one
	// buffered write. The binlog tap (RecordRaw) records exactly the
	// bytes being forwarded. Handshake frames (Hello/Welcome/Bye above)
	// stay on the decoded slow path — they are the frames the gateway
	// must understand and rewrite.
	var once sync.Once
	var severed atomic.Bool
	closeBoth := func() { severed.Store(true); _ = client.Close(); _ = backend.Close() }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // uplink: client → replica
		defer wg.Done()
		defer once.Do(closeBoth)
		var queued, flushed, lastAcked uint64
		// flush returns false on a backend write error. Acks checkpoint
		// only flushed frames: a resume retransmits from the last ack,
		// so a frame that died in an unflushed batch must stay unacked.
		flush := func() bool {
			if err := bw.Flush(); err != nil {
				return false
			}
			g.relayed.Add(int(queued - flushed))
			flushed = queued
			if flushed-lastAcked >= ackEvery {
				g.Coord.Ack(token, baseSeq+flushed)
				lastAcked = flushed
			}
			return true
		}
		for {
			raw, err := cr.ReadRaw()
			if err != nil {
				if bw.Queued() > 0 && bw.Flush() == nil {
					g.relayed.Add(int(queued - flushed))
					flushed = queued
				}
				g.Coord.Ack(token, baseSeq+flushed)
				return
			}
			if g.Record != nil {
				// tap before the span rewrite: capture what the client sent
				_ = g.Record.RecordRaw(binlog.DirUp, raw)
			}
			if raw.Type == wire.TypeBye {
				bw.QueueRaw(raw)
				if bw.Flush() == nil {
					g.relayed.Add(int(queued - flushed))
				}
				// clean departure: the replica will tear the session down as
				// soon as it reads the Bye, possibly before this goroutine's
				// deferred close runs — mark the relay severed first so the
				// downlink's read error is not mistaken for a replica death.
				severed.Store(true)
				g.Coord.End(token)
				return
			}
			if g.Spans != nil && raw.Trace.Valid() {
				// hop span: parent the client's span, pass the gateway's
				// on — the stitched trace then shows the relay hop.
				t := g.now()
				raw.SetTrace(g.Spans.Emit(CompGatewayUp, raw.Trace.Trace, t, t, raw.Trace.Span))
			}
			bw.QueueRaw(raw)
			queued++
			// flush on window exhaustion or an empty read buffer: never
			// hold a frame while the client has nothing more in flight
			if bw.Queued() >= wire.FlushWindow || !cr.FrameBuffered() {
				if !flush() {
					g.Coord.Ack(token, baseSeq+flushed)
					return
				}
			}
		}
	}()
	// downlink, on this goroutine: replica → client
	var dnQueued, dnFlushed uint64
	for {
		raw, err := br.ReadRaw()
		if err != nil {
			// the clean path ends with a relayed Bye, so an error here
			// without one means the replica went away under a session the
			// client still wanted: mark it Down (unless this end of the
			// relay was torn down first by the client side) and sever the
			// client so it redials with its token.
			if cw.Queued() > 0 && cw.Flush() == nil {
				g.relayed.Add(int(dnQueued - dnFlushed))
			}
			if !severed.Load() {
				g.Coord.SetStatus(replicaID, Down)
			}
			break
		}
		isBye := raw.Type == wire.TypeBye
		if g.Spans != nil && raw.Trace.Valid() && !isBye {
			t := g.now()
			raw.SetTrace(g.Spans.Emit(CompGatewayDown, raw.Trace.Trace, t, t, raw.Trace.Span))
		}
		cw.QueueRaw(raw)
		dnQueued++
		if g.Record != nil {
			// tap at queue time, after the rewrite: the capture holds the
			// bytes as delivered (QueueRaw copied them, so the alias into
			// the reader's scratch is safe)
			_ = g.Record.RecordRaw(binlog.DirDown, raw)
		}
		if isBye || cw.Queued() >= wire.FlushWindow || !br.FrameBuffered() {
			if err := cw.Flush(); err != nil {
				break
			}
			g.relayed.Add(int(dnQueued - dnFlushed))
			dnFlushed = dnQueued
		}
		if isBye {
			break
		}
	}
	once.Do(closeBoth)
	wg.Wait()
}

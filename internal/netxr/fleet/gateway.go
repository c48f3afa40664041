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

// maxIdleLegs bounds each replica's list of parked legs: beyond it a
// finished leg is closed instead. Above the concurrency one gateway
// normally sees per replica; a burst past it pays fresh dials.
const maxIdleLegs = 16

// Gateway trace-stitching constants: the gateway's span collector
// allocates ids from gatewayIDBase — disjoint from the client's low
// range and from every replica session's sessionID<<40 range (which
// stays below 1<<62 for the first ~4M sessions) — so gateway hop spans
// merge collision-free into a stitched cross-node trace
// (internal/telemetry/stitch, DESIGN.md §12).
const (
	// CompGatewayUp and compGatewayDown name the gateway's relay hop
	// spans in stitched traces.
	CompGatewayUp   = "gw_uplink"
	compGatewayDown = "gw_downlink"
	// gatewayIDBase is the gateway collector's span-id floor.
	gatewayIDBase = uint64(1) << 62
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
//
// A replica connection (a leg) outlives the session it was dialled for
// (DESIGN.md §11): the client's Bye half-closes the relay, and once the
// replica answers with its own terminal Bye the leg is parked on that
// replica's idle list for the next session placed there.
type Gateway struct {
	// Coord places sessions and owns resume state. Required.
	Coord *Coordinator
	// Dial opens a connection to a replica. Required.
	Dial func(replica int) (net.Conn, error)
	// HandshakeTimeout bounds the client Hello wait, the replica
	// handshake and the half-close's wait for the replica's Bye (0 = 5s).
	HandshakeTimeout time.Duration
	// Metrics receives illixr_fleet_* gateway instruments; nil = off.
	Metrics *telemetry.Registry
	// Spans, when installed, records one hop span per relayed traced
	// frame (gw_uplink / gw_downlink), parenting the incoming frame's
	// span and rewriting the relayed frame's trace ref — so a stitched
	// trace shows the gateway hop between client and replica. The
	// collector's id base is raised to gatewayIDBase on first use.
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
	reused    *telemetry.Counter

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]net.Conn // client conn → its replica leg's conn, once placed
	idle   map[int][]*leg        // parked legs per replica, most recent last
	wg     sync.WaitGroup
}

// leg is one gateway → replica connection with its pooled codec.
type leg struct {
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

func (l *leg) close() {
	_ = l.conn.Close()
	l.r.Release()
	l.w.Release()
}

func (g *Gateway) init() {
	g.initOnce.Do(func() {
		g.relayed = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_frames_relayed_total"))
		g.dialFail = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_dial_failures_total"))
		g.protoErrs = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_protocol_errors_total"))
		g.reused = g.Metrics.Counter(telemetry.MetricName("fleet", "gateway_legs_reused_total"))
		g.Coord.onDown(g.dropLegs)
		g.Spans.SetIDBase(gatewayIDBase) // nil-safe
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
		g.conns = map[net.Conn]net.Conn{}
	}
	g.conns[conn] = nil
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

// Shutdown stops accepting, closes every relayed connection (both legs)
// and every parked leg, then waits for the relay goroutines up to the
// context deadline.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ln := g.ln
	conns := make([]net.Conn, 0, 2*len(g.conns))
	for c, backend := range g.conns {
		conns = append(conns, c)
		if backend != nil {
			conns = append(conns, backend)
		}
	}
	var parked []*leg
	for id, legs := range g.idle {
		parked = append(parked, legs...)
		delete(g.idle, id)
	}
	g.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	for _, l := range parked {
		l.close()
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
		Payload: wire.AppendBye(buf, wire.Bye{Reason: reason, RetryAfterMs: wire.RetryAfterMs(retry)})}
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

// place picks a replica and opens a leg to it, then sends the replica
// hello and returns the replica's answer (bf: a Welcome, or a Bye
// refusing; it aliases the leg's reader). The leg is the replica's most
// recently parked one when it has any. A parked leg that fails the
// exchange (the replica idled it out, or went away) is closed and a
// fresh one dialled to the same replica; only a failed dial marks the
// replica Down and re-picks, up to dialAttempts.
func (g *Gateway) place(now float64, h wire.Hello, hello wire.Frame) (id int, l *leg, bf wire.Frame, err error) {
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if id, err = g.Coord.Pick(now, h); err != nil {
			return -1, nil, bf, err
		}
		if l = g.takeLeg(id); l != nil {
			if bf, err = g.exchange(l, hello); err == nil {
				g.reused.Inc()
				return id, l, bf, nil
			}
			l.close()
		}
		conn, err := g.Dial(id)
		if err != nil {
			// a replica that refuses a dial is treated as crashed: mark it
			// Down so placement stops routing there, and try the next one.
			g.dialFail.Inc()
			g.Coord.cfg.Events.RecordAt(now, telemetry.EventDialFail, replicaNode(id), err.Error())
			g.Coord.setStatus(id, down)
			lastErr = fmt.Errorf("fleet: dial replica %d: %w", id, err)
			continue
		}
		l = &leg{conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
		if bf, err = g.exchange(l, hello); err != nil {
			// refused as "fleet unavailable"; the replica stays Up
			l.close()
			return -1, nil, bf, fmt.Errorf("fleet: replica %d handshake: %w", id, err)
		}
		return id, l, bf, nil
	}
	return -1, nil, bf, lastErr
}

// exchange writes the replica hello on l and reads the replica's first
// answer within HandshakeTimeout: the one handshake a fresh and a parked
// leg share.
func (g *Gateway) exchange(l *leg, hello wire.Frame) (wire.Frame, error) {
	if err := l.w.WriteFrame(hello); err != nil {
		return wire.Frame{}, err
	}
	_ = l.conn.SetReadDeadline(time.Now().Add(g.HandshakeTimeout))
	bf, err := l.r.ReadFrame()
	_ = l.conn.SetReadDeadline(time.Time{})
	return bf, err
}

// takeLeg pops replica id's most recently parked leg (nil: none).
func (g *Gateway) takeLeg(id int) *leg {
	g.mu.Lock()
	defer g.mu.Unlock()
	legs := g.idle[id]
	if len(legs) == 0 {
		return nil
	}
	l := legs[len(legs)-1]
	legs[len(legs)-1] = nil
	g.idle[id] = legs[:len(legs)-1]
	return l
}

// park puts a leg whose session ended on both peers' Byes onto replica
// id's idle list. false — the gateway is shut, the replica is no longer
// Up, or the list is full — leaves the leg to the caller to close. The
// status is read under mu, so a replica marked Down either sees the leg
// in dropLegs or refuses it here.
func (g *Gateway) park(id int, l *leg) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || len(g.idle[id]) >= maxIdleLegs || g.Coord.StatusOf(id) != Up {
		return false
	}
	if g.idle == nil {
		g.idle = map[int][]*leg{}
	}
	g.idle[id] = append(g.idle[id], l)
	return true
}

// dropLegs closes every leg parked on replica id: the coordinator calls
// it when the replica is marked Down.
func (g *Gateway) dropLegs(id int) {
	g.mu.Lock()
	legs := g.idle[id]
	delete(g.idle, id)
	g.mu.Unlock()
	for _, l := range legs {
		l.close()
	}
}

// readDrained reports that r holds no further whole frame: the next read
// goes back to the socket, so a relay flushes what it has queued.
func readDrained(r *wire.Reader) bool {
	_, more := r.FrameBuffered()
	return !more
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

	// 2. place, and handshake the replica with a resume-stripped Hello:
	// the replica admits it as a brand-new session; resume is a
	// fleet-level fiction.
	backendHello := hello
	backendHello.ResumeToken, backendHello.LastSeq = 0, 0
	hbuf := wire.AppendHello(recycle.Bytes.Get(128)[:0], backendHello)
	replicaID, l, bf, err := g.place(g.now(), hello, wire.Frame{Type: wire.TypeHello, Trace: f.Trace, Payload: hbuf})
	recycle.Bytes.Put(hbuf)
	if err != nil {
		if errors.Is(err, errNoReplica) {
			g.refuse(client, cw, "fleet full", g.Coord.cfg.RetryAfter)
		} else {
			g.refuse(client, cw, "fleet unavailable", g.Coord.cfg.RetryAfter)
		}
		return
	}
	parked := false
	defer func() {
		if !parked {
			l.close()
		}
	}()
	backend, br, bw := l.conn, l.r, l.w
	if bf.Type == wire.TypeBye {
		// replica-level refusal (e.g. its own MaxSessions): relay the
		// push-back as-is — the hint tells the client when to come back.
		b, _ := wire.DecodeBye(bf.Payload)
		if b.RetryAfterMs == 0 {
			b.RetryAfterMs = wire.RetryAfterMs(g.Coord.cfg.RetryAfter)
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

	// 3. commit the placement; this can still refuse (the replica filled
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
	// Shutdown closes the replica leg of a live relay too: a half-closed
	// relay reads only from it
	g.mu.Lock()
	closed := g.closed
	if !closed {
		g.conns[client] = backend
	}
	g.mu.Unlock()
	if closed {
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

	// 4. relay, zero-copy (DESIGN.md §15): after the handshake the
	// gateway never decodes a payload again. ReadRaw peeks type and
	// trace from the fixed header and hands over the whole encoded
	// frame; the only rewrite is the hop-span trace (SetTrace patches
	// the header and CRC in place), and none once the hop collector is
	// full; QueueRaw passes the bytes through the writer's buffer, and
	// up to wire.FlushWindow frames ride one buffered write. The binlog
	// tap (RecordRaw) records exactly the bytes being forwarded.
	// Handshake frames (Hello/Welcome/Bye above) stay on the decoded slow
	// path — they are the frames the gateway must understand and rewrite.
	//
	// The client's Bye half-closes the relay: the uplink forwards it and
	// returns with both conns open, and the downlink goes on relaying
	// what the replica still flushes until the replica's own terminal
	// Bye, within HandshakeTimeout. Any other ending severs both conns.
	rl := &relayLink{g: g, client: client, backend: backend, cr: cr, bw: bw,
		token: welcome.ResumeToken, baseSeq: welcome.LastAckSeq}
	rl.uplinkDone.Add(1)
	go rl.uplink()
	// downlink, on this goroutine: replica → client
	var dnQueued, dnFlushed uint64
	clientGone := false // a client write failed after its Bye: read on, relay nothing
	for {
		raw, err := br.ReadRaw()
		if err != nil {
			// the clean path ends with the replica's Bye, so an error here
			// without one means the replica went away under a session the
			// client still wanted: mark it Down (unless the relay was torn
			// down, or half-closed and merely timed out) and sever the
			// client so it redials with its token.
			if !clientGone && cw.Queued() > 0 && cw.Flush() == nil {
				g.relayed.Add(int(dnQueued - dnFlushed))
			}
			if !rl.severed.Load() && !rl.halfClosed.Load() {
				g.Coord.setStatus(replicaID, down)
			}
			break
		}
		isBye := raw.Type == wire.TypeBye
		if !clientGone {
			if !isBye {
				g.hop(&raw, compGatewayDown)
			}
			cw.QueueRaw(raw)
			dnQueued++
			if g.Record != nil {
				// tap at queue time, after the rewrite: the capture holds the
				// bytes as delivered (QueueRaw copied them, so the alias into
				// the reader's buffer is safe)
				_ = g.Record.RecordRaw(binlog.DirDown, raw)
			}
		}
		if isBye && rl.halfClosed.Load() && !drainBye(raw) {
			// the replica's answer to the client's Bye. Once the uplink has
			// returned without severing (its Bye reached the replica), both
			// peers have said Bye and the leg is clean: park it before the
			// client hears the answer (queued above, so the leg's reader is
			// free), so a client that waits for it finds the leg parked.
			rl.uplinkDone.Wait()
			if !rl.severed.Load() {
				_ = backend.SetDeadline(time.Time{})
				parked = g.park(replicaID, l)
			}
		}
		// after a Bye the leg may already be parked, its reader another
		// relay's: the order of this test keeps br untouched then
		if !clientGone && (isBye || cw.Queued() >= wire.FlushWindow || readDrained(br)) {
			if err := cw.Flush(); err == nil {
				g.relayed.Add(int(dnQueued - dnFlushed))
				dnFlushed = dnQueued
			} else if rl.halfClosed.Load() {
				clientGone = true // it said Bye and hung up: fine
			} else {
				break
			}
		}
		if isBye {
			break
		}
	}
	if parked {
		_ = client.Close()
	} else {
		rl.sever()
	}
	rl.uplinkDone.Wait()
}

// hop rewrites a relayed frame's trace onto a gateway hop span parenting
// the incoming one, so a stitched trace shows the relay hop. An untraced
// frame, and every frame once the hop collector is full (the span would
// not be kept), passes with its bytes untouched: no clock read, no span
// id and no CRC recompute, and the next node parents the sender's span.
func (g *Gateway) hop(raw *wire.Raw, name string) {
	if g.Spans == nil || !raw.Trace.Valid() || g.Spans.DropIfFull() {
		return
	}
	t := g.now()
	raw.SetTrace(g.Spans.Emit(name, raw.Trace.Trace, t, t, raw.Trace.Span))
}

// relayLink is what a relay's uplink goroutine shares with its downlink
// loop, in one value per relay.
type relayLink struct {
	g               *Gateway
	client, backend net.Conn
	cr              *wire.Reader // client → gateway
	bw              *wire.Writer // gateway → replica
	token, baseSeq  uint64       // the resume token and its ack base
	// severed is set by the first sever, before it closes both conns;
	// halfClosed by the uplink when it forwards the client's Bye
	severed, halfClosed atomic.Bool
	uplinkDone          sync.WaitGroup
}

// sever closes both conns, once.
func (rl *relayLink) sever() {
	if rl.severed.CompareAndSwap(false, true) {
		_ = rl.client.Close()
		_ = rl.backend.Close()
	}
}

// uplink relays client → replica until the client's Bye (a half-close:
// both conns stay open) or an error (a sever). Acks checkpoint only
// flushed frames: a resume retransmits from the last ack, so a frame that
// died in an unflushed batch must stay unacked.
func (rl *relayLink) uplink() {
	defer rl.uplinkDone.Done()
	g, cr, bw := rl.g, rl.cr, rl.bw
	var queued, flushed, lastAcked uint64
	for {
		raw, err := cr.ReadRaw()
		if err != nil {
			if bw.Queued() > 0 && bw.Flush() == nil {
				g.relayed.Add(int(queued - flushed))
				flushed = queued
			}
			g.Coord.ack(rl.token, rl.baseSeq+flushed)
			rl.sever()
			return
		}
		if g.Record != nil {
			// tap before the span rewrite: capture what the client sent
			_ = g.Record.RecordRaw(binlog.DirUp, raw)
		}
		if raw.Type == wire.TypeBye {
			// clean departure. Mark the half-close before the replica
			// can answer, and bound the downlink's wait for that answer
			// and its writes to a client that may have stopped reading.
			rl.halfClosed.Store(true)
			bound := time.Now().Add(g.HandshakeTimeout)
			_ = rl.backend.SetDeadline(bound)
			_ = rl.client.SetWriteDeadline(bound)
			bw.QueueRaw(raw)
			err := bw.Flush()
			if err == nil {
				g.relayed.Add(int(queued - flushed))
			}
			g.Coord.End(rl.token)
			if err != nil {
				rl.sever()
			}
			return
		}
		g.hop(&raw, CompGatewayUp)
		bw.QueueRaw(raw)
		queued++
		// flush on window exhaustion or an empty read buffer: never
		// hold a frame while the client has nothing more in flight
		if bw.Queued() < wire.FlushWindow && !readDrained(cr) {
			continue
		}
		if err := bw.Flush(); err != nil {
			g.Coord.ack(rl.token, rl.baseSeq+flushed)
			rl.sever()
			return
		}
		g.relayed.Add(int(queued - flushed))
		flushed = queued
		if flushed-lastAcked >= ackEvery {
			g.Coord.ack(rl.token, rl.baseSeq+flushed)
			lastAcked = flushed
		}
	}
}

// drainBye reports whether a relayed Bye carries a Retry-After hint: the
// replica is draining (or refusing), not answering a client's Bye.
func drainBye(raw wire.Raw) bool {
	f, _, err := wire.Decode(raw.Bytes)
	if err != nil {
		return true
	}
	b, err := wire.DecodeBye(f.Payload)
	return err != nil || b.RetryAfterMs > 0
}

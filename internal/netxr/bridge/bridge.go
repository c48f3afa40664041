// Package bridge adapts netxr streams into the local switchboard on both
// ends of the pipeline split, so internal/core components run unmodified
// whether their peers are in-process or across the network (DESIGN.md §9).
//
// The split point is the switchboard boundary between the sensor front
// half and the perception back half: the client runs the sensor sources
// and the display path, the server hosts the IMU integrator (and
// optionally the MSCKF VIO). Uplink carries IMU samples and camera
// frames; downlink carries fast poses. Trace refs ride in the frame
// headers, so a pose's causal lineage walks back across the wire to the
// IMU sample that produced it — the client and server span collectors
// allocate from disjoint id ranges (SpanCollector.SetIDBase) to keep the
// merged trace consistent.
package bridge

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/recycle"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/stitch"
)

// compNetUp and compNetDown name the wire-crossing trace stages: a span
// of either name marks the hop between the client and server collectors.
const (
	compNetUp   = "net_uplink"
	compNetDown = "net_downlink"
)

// serverIDBase spreads per-session span-id ranges: session N allocates
// ids from N<<40, disjoint from the client's low range and from every
// other session for the first ~10^12 spans each.
func serverIDBase(sessionID uint64) uint64 { return sessionID << 40 }

// ---------------------------------------------------------------------------
// Server side: Pipeline runs one perception back half per session.

// Pipeline implements session.Handler: per connected client it keeps an
// IMU integrator and integrates each uplinked sample on the session's
// reader goroutine, sending the newest pose back latest-wins
// (DESIGN.md §9.2). With VIO the reader also hands each IMU sample and
// camera frame to the session's MSCKF goroutine (vio.go), which a panic
// resets without ending the session.
type Pipeline struct {
	// Metrics is shared across sessions (the illixr_netxr_* registry);
	// nil runs uninstrumented.
	Metrics *telemetry.Registry
	// Init supplies the integrator's initial state for a session; nil
	// starts at the origin (the client then interprets poses relative to
	// its own starting pose).
	Init func(h wire.Hello) integrator.State
	// Cam supplies the camera model when VIO is true.
	Cam func(h wire.Hello) sensors.CameraModel
	// VIO additionally hosts the MSCKF on the uplinked camera frames.
	VIO bool
	// RetainTracers keeps up to this many ended sessions' span
	// collectors so Dumps (the /spans federation source and -trace-out)
	// still covers sessions that disconnected before the export
	// (0 = drop tracers with their session).
	RetainTracers int

	mu       sync.Mutex
	states   map[uint64]*pipeState
	retained []*telemetry.SpanCollector

	// the instruments every session shares, resolved from Metrics by the
	// first SessionStart (nil, and a no-op, when uninstrumented)
	resolve   sync.Once
	qoe       *telemetry.Histogram
	vioResets *telemetry.Counter

	// vioFault, when set, runs before each VIO frame of every session:
	// this package's tests panic in it
	vioFault func(t float64)
}

// pipeState is one session's back half. SessionStart hands it to
// SessionFrame through the session's handler value, so the per-frame path
// takes no pipeline lock and looks no topic up. Everything a session keeps
// for its whole life is embedded here: one allocation, not one per part.
type pipeState struct {
	tracer *telemetry.SpanCollector
	integ  core.BatchIntegrator
	pose   [poseScratch]byte // the pose encode scratch; Send copies it
	// camera is the frame a session without VIO decodes into: nothing on
	// the replica keeps it past SessionFrame
	camera sensors.CameraFrame
	vio    *vioSession // VIO sessions only
}

// poseScratch and imuScratch cover an encoded pose (64 bytes) and IMU
// sample (56), so the encode buffers never grow; a camera frame grows the
// uplink's once.
const (
	poseScratch = 64
	imuScratch  = 64
)

// SessionStart implements session.Handler.
func (p *Pipeline) SessionStart(s *session.Session) error {
	p.resolve.Do(func() {
		p.qoe = p.Metrics.Histogram(telemetry.MetricName("netxr", "qoe_mtp_ms"))
		if p.VIO {
			p.vioResets = p.Metrics.Counter(telemetry.MetricName(core.CompVIO, "resets_total"))
		}
	})
	tracer := telemetry.NewSpanCollector(0)
	tracer.SetIDBase(serverIDBase(s.ID()))
	var init integrator.State
	if p.Init != nil {
		init = p.Init(s.Hello())
	}
	st := &pipeState{tracer: tracer, integ: core.NewBatchIntegrator(init, tracer, p.Metrics)}
	if p.VIO {
		if p.Cam == nil {
			return errors.New("bridge: VIO requires a Cam model source")
		}
		st.vio = p.startVIOSession(p.Cam(s.Hello()), init, tracer)
	}
	p.mu.Lock()
	if p.states == nil {
		p.states = map[uint64]*pipeState{}
	}
	p.states[s.ID()] = st
	p.mu.Unlock()
	s.SetHandlerValue(st)
	return nil
}

// SessionFrame implements session.Handler: uplink frames are decoded
// with a net_uplink span bridging the remote lineage. An IMU sample is
// integrated here, on the reader goroutine, and the newest pose goes
// back once no further IMU frame is already buffered behind this one
// (or a batch is full), so a saturated session sends one pose per socket
// read and a paced one a pose per sample.
func (p *Pipeline) SessionFrame(s *session.Session, f wire.Frame) error {
	st, _ := s.HandlerValue().(*pipeState)
	if st == nil {
		return fmt.Errorf("bridge: session %d: frame before start", s.ID())
	}
	switch f.Type {
	case wire.TypeIMU:
		sample, err := wire.DecodeIMU(f.Payload)
		if err != nil {
			return fmt.Errorf("bridge: session %d: imu: %w", s.ID(), err)
		}
		ref := st.tracer.Emit(compNetUp, f.Trace.Trace, sample.T, sample.T, f.Trace.Span)
		if st.vio != nil {
			st.vio.addIMU(sample)
		}
		st.integ.Feed(sample, ref)
		if st.integ.Due(s.NextBuffered() == wire.TypeIMU) {
			st.sendPose(s)
		}
	case wire.TypeCamera:
		frame, err := st.decodeCamera(f.Payload)
		if err != nil {
			return fmt.Errorf("bridge: session %d: camera: %w", s.ID(), err)
		}
		ref := st.tracer.Emit(compNetUp, f.Trace.Trace, frame.T, frame.T, f.Trace.Span)
		if st.vio != nil {
			st.vio.addCamera(frame, ref)
		}
	case wire.TypeQoE:
		q, err := wire.DecodeQoE(f.Payload)
		if err != nil {
			return fmt.Errorf("bridge: session %d: qoe: %w", s.ID(), err)
		}
		p.qoe.Observe((q.MTP.IMUAge + q.MTP.Reproj + q.MTP.Swap) * 1000)
	default:
		// unknown-but-well-framed types are ignored: forward compatibility
	}
	return nil
}

// decodeCamera decodes a camera payload: into a fresh frame on a VIO
// session, whose MSCKF inbox keeps it, and otherwise into the session's
// scratch frame, which the next camera frame overwrites.
func (st *pipeState) decodeCamera(p []byte) (sensors.CameraFrame, error) {
	if st.vio != nil {
		return wire.DecodeCamera(p)
	}
	err := wire.DecodeCameraInto(&st.camera, p)
	return st.camera, err
}

// sendPose ends the integrator's batch and offers its pose to the
// session's latest-wins slot: if the link is slower than the poses, an
// unsent stale one is displaced (and counted) there, never queued. A
// LatestWins Send fails only on a session that is already ending.
func (st *pipeState) sendPose(s *session.Session) {
	t, pose, ref := st.integ.Flush()
	down := st.tracer.Emit(compNetDown, ref.Trace, t, t, ref.Span)
	buf := wire.AppendPose(st.pose[:0], wire.Pose{T: t, Pose: pose})
	_ = s.Send(wire.Frame{Type: wire.TypePose, Trace: down, Payload: buf}, session.LatestWins)
}

// SessionEnd implements session.Handler.
func (p *Pipeline) SessionEnd(s *session.Session, _ error) {
	p.mu.Lock()
	st := p.states[s.ID()]
	delete(p.states, s.ID())
	if st != nil && p.RetainTracers > 0 {
		p.retained = append(p.retained, st.tracer)
		if len(p.retained) > p.RetainTracers {
			p.retained = p.retained[len(p.retained)-p.RetainTracers:]
		}
	}
	p.mu.Unlock()
	if st != nil && st.vio != nil {
		st.vio.stop()
	}
}

// Dumps merges every session tracer — live ones plus the RetainTracers
// tail of ended ones — into a single node-labelled span dump for
// cross-node stitching (/spans?format=raw federation, -trace-out).
// Per-session id bases are disjoint (serverIDBase), so concatenation
// cannot collide. Empty node defaults to "replica".
func (p *Pipeline) Dumps(node string) []stitch.Dump {
	if node == "" {
		node = "replica"
	}
	p.mu.Lock()
	collectors := make([]*telemetry.SpanCollector, 0, len(p.states)+len(p.retained))
	collectors = append(collectors, p.retained...)
	ids := make([]uint64, 0, len(p.states))
	for id := range p.states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		collectors = append(collectors, p.states[id].tracer)
	}
	p.mu.Unlock()

	d := stitch.Dump{Node: node, Spans: []telemetry.Span{}}
	for _, c := range collectors {
		d.Spans = append(d.Spans, c.Spans()...)
		d.Dropped += c.Dropped()
	}
	return []stitch.Dump{d}
}

var _ session.Handler = (*Pipeline)(nil)

// ---------------------------------------------------------------------------
// Client side: Client owns the connection; Uplink/Downlink are runtime
// plugins bridging the local switchboard to it.

// Client is the device end of the split: it dials, handshakes, and hands
// out the Uplink/Downlink plugins that splice the connection into a
// local runtime.
type Client struct {
	conn    net.Conn
	r       *wire.Reader // the handshake's, then the downlink's; released when it exits
	welcome wire.Welcome
	tracer  *telemetry.SpanCollector
	capture *binlog.Writer
	window  *SendWindow

	wmu sync.Mutex
	w   *wire.Writer // nil once Close or the downlink's Stop has released it

	mu     sync.Mutex
	err    error
	closed bool
	bye    wire.Bye
	pongs  map[uint64]chan wire.Ping // made by the first Ping

	// written by the downlink reader alone, read by anyone
	recvSeq   atomic.Uint64
	lastPoseT atomic.Uint64 // math.Float64bits of the latest pose's T
	havePose  atomic.Bool   // set after lastPoseT's first store

	// the client's one uplink and one downlink, embedded so they cost no
	// allocation of their own
	up   uplinkPlugin
	down downlinkPlugin
}

// refusedError is returned by DialWith when the server answers the Hello
// with a Bye instead of a Welcome. A Retry-After hint on the Bye marks
// the refusal transient: back off and redial (Redialer does this).
type refusedError struct {
	Bye wire.Bye
}

func (e *refusedError) Error() string {
	if e.Bye.RetryAfterMs > 0 {
		return fmt.Sprintf("bridge: refused: %s (retry after %dms)", e.Bye.Reason, e.Bye.RetryAfterMs)
	}
	return "bridge: refused: " + e.Bye.Reason
}

// Retryable reports whether the server invited the client back.
func (e *refusedError) Retryable() bool { return e.Bye.Retryable() }

// DialOptions collects the optional collaborators a dialed client can
// carry; the zero value is a plain untraced, untracked client.
type DialOptions struct {
	// Tracer receives the client's spans; may be nil.
	Tracer *telemetry.SpanCollector
	// Capture is a client-side binlog tap; may be nil.
	Capture *binlog.Writer
	// Window, when set, numbers and retains every post-handshake uplink
	// frame (Hello and Bye excluded — the gateway ack checkpoint counts
	// neither) so a resumed session can retransmit the unacked gap.
	Window *SendWindow
}

// DialWith performs the client handshake over an established
// connection. With a Capture every frame this client sends (DirUp) or
// receives (DirDown) — the Hello and Welcome included — is recorded
// through the Writer's single append path (DESIGN.md §13); the
// capture's owner closes it after the client is done.
func DialWith(conn net.Conn, hello wire.Hello, opts DialOptions) (*Client, error) {
	hello.Proto = wire.Version
	c := &Client{
		conn:    conn,
		r:       wire.NewReader(conn),
		w:       wire.NewWriter(conn),
		tracer:  opts.Tracer,
		capture: opts.Capture,
		window:  opts.Window,
	}
	c.up.c, c.down.c = c, c
	cap := opts.Capture
	hbuf := wire.AppendHello(recycle.Bytes.Get(128)[:0], hello)
	err := c.write(wire.Frame{Type: wire.TypeHello, Payload: hbuf})
	recycle.Bytes.Put(hbuf) // queue, the capture and the window copy synchronously
	if err != nil {
		c.abandon()
		return nil, fmt.Errorf("bridge: hello: %w", err)
	}
	f, err := c.r.ReadFrame()
	if err != nil {
		c.abandon()
		return nil, fmt.Errorf("bridge: awaiting welcome: %w", err)
	}
	if cap != nil {
		_ = cap.Record(binlog.DirDown, f)
	}
	switch f.Type {
	case wire.TypeWelcome:
		w, derr := wire.DecodeWelcome(f.Payload)
		if derr != nil {
			c.abandon()
			return nil, fmt.Errorf("bridge: welcome: %w", derr)
		}
		c.welcome = w
		return c, nil
	case wire.TypeBye:
		b, _ := wire.DecodeBye(f.Payload)
		c.abandon()
		return nil, &refusedError{Bye: b}
	default:
		c.abandon()
		return nil, fmt.Errorf("bridge: unexpected %v before welcome", f.Type)
	}
}

// abandon closes the conn of a failed handshake and gives back both
// buffers; nothing else holds the client yet.
func (c *Client) abandon() {
	_ = c.conn.Close()
	c.r.Release()
	c.w.Release()
}

// Session returns the server-assigned session id.
func (c *Client) Session() uint64 { return c.welcome.Session }

// Welcome returns the handshake result: the resume token to present on
// reconnect and, on a resumed session, the restored snapshot.
func (c *Client) Welcome() wire.Welcome { return c.welcome }

// lastRecvSeq returns the number of downlink frames this client has seen —
// the LastSeq a resume Hello should carry.
func (c *Client) lastRecvSeq() uint64 { return c.recvSeq.Load() }

// queue encodes f onto the client's shared writer (the uplink forwarder,
// pings, QoE and retransmission all go through wmu) and puts the whole
// pending batch on the wire in one Write when flush is set or
// wire.FlushWindow frames are pending, so the first sample of a deep
// burst does not wait for the last to be encoded. The capture tap and
// the send window see the frame here, at queue time, so binlog order and
// window sequence are wire order even across a coalesced batch, and a
// frame whose flush fails is still in the window for the next resume. Hello
// and Bye stay untracked — the gateway's ack checkpoint counts neither
// — and so do retransmissions, which already hold sequence numbers.
func (c *Client) queue(f wire.Frame, tracked, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.queueLocked(f, tracked, flush)
}

// errWritesEnded is what a write after Close (or after the downlink's
// Stop) gets: the writer is back in the pool and another conn may own it.
var errWritesEnded = errors.New("bridge: client closed")

// queueLocked is queue with wmu held.
func (c *Client) queueLocked(f wire.Frame, tracked, flush bool) error {
	if c.w == nil {
		return errWritesEnded
	}
	c.w.Queue(f)
	if c.capture != nil {
		_ = c.capture.Record(binlog.DirUp, f)
	}
	if tracked && c.window != nil && f.Type != wire.TypeHello && f.Type != wire.TypeBye {
		c.window.push(f)
	}
	if flush || c.w.Queued() >= wire.FlushWindow {
		return c.w.Flush()
	}
	return nil
}

// write puts f on the wire now, behind anything already queued.
func (c *Client) write(f wire.Frame) error { return c.queue(f, true, true) }

// flush writes whatever is queued; a no-op with nothing pending.
func (c *Client) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		return errWritesEnded
	}
	return c.w.Flush()
}

// endWritesLocked gives the writer back to the pool; every later queue
// or flush fails with errWritesEnded. Caller holds wmu.
func (c *Client) endWritesLocked() {
	if c.w != nil {
		c.w.Release()
		c.w = nil
	}
}

// fail records the first transport error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil && err != nil {
		c.err = err
	}
	c.mu.Unlock()
}

// Err returns the first transport error observed (nil while healthy).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ByeReason returns the reason string of the server's Bye, if one arrived.
func (c *Client) ByeReason() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bye.Reason
}

// Close sends a Bye — behind whatever is still queued, in the same
// write — ends writes and closes the connection. Nothing reaches the
// wire after the Bye: a forwarder racing Close gets errWritesEnded.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	bye := wire.AppendBye(recycle.Bytes.Get(64)[:0], wire.Bye{Reason: "client close"})
	c.wmu.Lock()
	_ = c.queueLocked(wire.Frame{Type: wire.TypeBye, Payload: bye}, true, true)
	c.endWritesLocked()
	c.wmu.Unlock()
	recycle.Bytes.Put(bye)
	return c.conn.Close()
}

// SendQoE reports a motion-to-photon sample upstream.
func (c *Client) SendQoE(m telemetry.MTPSample) error {
	q := wire.QoE{Session: c.welcome.Session, MTP: m}
	return c.write(wire.Frame{Type: wire.TypeQoE, Payload: wire.AppendQoE(nil, q)})
}

// Ping round-trips a wire-level probe and returns when the pong arrives
// or the timeout expires. Requires the Downlink plugin to be running.
func (c *Client) Ping(seq uint64, t float64, timeout time.Duration) (wire.Ping, error) {
	ch := make(chan wire.Ping, 1)
	c.mu.Lock()
	if c.pongs == nil {
		c.pongs = map[uint64]chan wire.Ping{}
	}
	c.pongs[seq] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pongs, seq)
		c.mu.Unlock()
	}()
	if err := c.write(wire.Frame{Type: wire.TypePing, Payload: wire.AppendPing(nil, wire.Ping{Seq: seq, T: t})}); err != nil {
		return wire.Ping{}, err
	}
	select {
	case p := <-ch:
		return p, nil
	case <-time.After(timeout):
		return wire.Ping{}, errors.New("bridge: ping timeout")
	}
}

// LastPoseT returns the session time of the latest downlinked pose.
func (c *Client) LastPoseT() (float64, bool) {
	if !c.havePose.Load() {
		return 0, false
	}
	return math.Float64frombits(c.lastPoseT.Load()), true
}

// errStarted is what a plugin's second Start gets: a client has one
// uplink and one downlink, and each runs once.
var errStarted = errors.New("bridge: plugin already started")

// Uplink returns the client's plugin that forwards local IMU and camera
// events to the server, trace refs included. Send failures latch into Err
// and stop the forwarder (the owner decides whether to redial). It can be
// started once: a second uplink would put every sample on the wire twice.
func (c *Client) Uplink() runtime.Plugin { return &c.up }

// Downlink returns the client's plugin that publishes server poses onto
// the local fast-pose topic (and reprojected frames onto the warped
// topic). It can be started once: it owns the connection's reader.
func (c *Client) Downlink() runtime.Plugin { return &c.down }

type uplinkPlugin struct {
	c       *Client
	started atomic.Bool
	imuSub  *runtime.Subscription
	camSub  *runtime.Subscription
	wg      sync.WaitGroup   // the forwarder
	scratch [imuScratch]byte // the encode buffer's first backing array
}

// Name implements runtime.Plugin.
func (p *uplinkPlugin) Name() string { return "netxr.uplink" }

// Start implements runtime.Plugin: it subscribes to the IMU and camera
// topics and starts the forwarder.
func (p *uplinkPlugin) Start(ctx *runtime.Context) error {
	if !p.started.CompareAndSwap(false, true) {
		return errStarted
	}
	p.imuSub = ctx.Switchboard.GetTopic(runtime.TopicIMU).Subscribe(8192)
	p.camSub = ctx.Switchboard.GetTopic(runtime.TopicCamera).Subscribe(256)
	p.wg.Add(1)
	go p.forward()
	return nil
}

// forward drains both subscriptions into the client's writer and flushes
// on exhaustion: while either channel holds another event the frame is
// only queued, and the moment both are empty the batch goes out in one
// write — a lone sample is on the wire immediately, a burst costs one
// syscall per wire.FlushWindow frames, and nothing waits on a timer.
// Once the forwarder is more than a subscription fast tier (64 events)
// behind, the rest of the backlog reaches the channel through a pump
// goroutine (DESIGN.md §4), and the channel can run empty with events
// still queued; Drained tells that pause from the end of the burst, so a
// deep backlog still goes out one whole window per write.
func (p *uplinkPlugin) forward() {
	defer p.wg.Done()
	buf := p.scratch[:0]
	imuC, camC := p.imuSub.C, p.camSub.C
	for imuC != nil || camC != nil {
		var f wire.Frame
		select {
		case ev, open := <-imuC:
			if !open {
				imuC = nil
				continue
			}
			if s, ok := ev.Value.(sensors.IMUSample); ok {
				buf = wire.AppendIMU(buf[:0], s)
				f = wire.Frame{Type: wire.TypeIMU, Trace: ev.Trace, Payload: buf}
			}
		case ev, open := <-camC:
			if !open {
				camC = nil
				continue
			}
			if cf, ok := ev.Value.(sensors.CameraFrame); ok {
				buf = wire.AppendCamera(buf[:0], cf)
				f = wire.Frame{Type: wire.TypeCamera, Trace: ev.Trace, Payload: buf}
			}
		}
		// this goroutine is the only consumer, so a non-empty channel
		// means the next receive cannot block; an empty one may only
		// be waiting for the pump to refill it
		exhausted := len(imuC) == 0 && len(camC) == 0 &&
			p.imuSub.Drained() && p.camSub.Drained()
		var err error
		if f.Type != wire.TypeInvalid {
			err = p.c.queue(f, true, exhausted)
		} else if exhausted {
			err = p.c.flush() // a foreign event ended the burst
		}
		if err != nil {
			p.c.fail(fmt.Errorf("uplink %v: %w", f.Type, err))
			return
		}
	}
}

// Stop implements runtime.Plugin.
func (p *uplinkPlugin) Stop() error {
	p.imuSub.Cancel()
	p.camSub.Cancel()
	p.wg.Wait()
	return nil
}

type downlinkPlugin struct {
	c       *Client
	started atomic.Bool
	fast    *runtime.Topic
	warped  *runtime.Topic
	wg      sync.WaitGroup // the reader
}

// Name implements runtime.Plugin.
func (p *downlinkPlugin) Name() string { return "netxr.downlink" }

// Start implements runtime.Plugin: it starts the connection's reader.
func (p *downlinkPlugin) Start(ctx *runtime.Context) error {
	if !p.started.CompareAndSwap(false, true) {
		return errStarted
	}
	p.fast = ctx.Switchboard.GetTopic(runtime.TopicFastPose)
	p.warped = ctx.Switchboard.GetTopic(runtime.TopicWarped)
	p.wg.Add(1)
	go p.read()
	return nil
}

// read publishes what the server sends until the connection ends or a
// Bye arrives.
func (p *downlinkPlugin) read() {
	defer p.wg.Done()
	c := p.c
	// the reader is this goroutine's alone from here on: a Client's
	// downlink runs once, and its exit is the reader's last use
	defer c.r.Release()
	for {
		f, err := c.r.ReadFrame()
		if err != nil {
			if !c.isClosed() {
				c.fail(fmt.Errorf("downlink: %w", err))
			}
			return
		}
		c.recvSeq.Add(1)
		if c.capture != nil {
			_ = c.capture.Record(binlog.DirDown, f)
		}
		switch f.Type {
		case wire.TypePose:
			pm, derr := wire.DecodePose(f.Payload)
			if derr != nil {
				c.fail(fmt.Errorf("downlink pose: %w", derr))
				return
			}
			// bridge the server's lineage into the local collector: the
			// parent span id lives in the server's id range, disjoint by
			// construction.
			ref := c.tracer.Emit(compNetDown, f.Trace.Trace, pm.T, pm.T, f.Trace.Span)
			if !ref.Valid() {
				ref = f.Trace
			}
			c.lastPoseT.Store(math.Float64bits(pm.T))
			c.havePose.Store(true)
			p.fast.Publish(runtime.Event{T: pm.T, Value: pm.Pose, Trace: ref})
		case wire.TypeFrame:
			rf, derr := wire.DecodeReprojFrame(f.Payload)
			if derr != nil {
				c.fail(fmt.Errorf("downlink frame: %w", derr))
				return
			}
			p.warped.Publish(runtime.Event{T: rf.T, Value: rf, Trace: f.Trace})
		case wire.TypePong:
			pg, derr := wire.DecodePing(f.Payload)
			if derr != nil {
				continue
			}
			c.mu.Lock()
			ch := c.pongs[pg.Seq]
			c.mu.Unlock()
			if ch != nil {
				select {
				case ch <- pg:
				default:
				}
			}
		case wire.TypeBye:
			b, _ := wire.DecodeBye(f.Payload)
			c.mu.Lock()
			c.bye = b
			c.mu.Unlock()
			return
		}
	}
}

// Stop implements runtime.Plugin.
func (p *downlinkPlugin) Stop() error {
	// flag first: the reader treats an error as a failure unless closed is
	// already set when the conn's close wakes it
	p.c.mu.Lock()
	closing := p.c.closed
	p.c.closed = true
	p.c.mu.Unlock()
	// after Close, which ends writes and closes the conn itself, a second
	// close would only build an error to throw away
	if !closing {
		_ = p.c.conn.Close()
		// the conn is gone, so nothing can be written any more
		p.c.wmu.Lock()
		p.c.endWritesLocked()
		p.c.wmu.Unlock()
	}
	p.wg.Wait()
	return nil
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

var (
	_ runtime.Plugin = (*uplinkPlugin)(nil)
	_ runtime.Plugin = (*downlinkPlugin)(nil)
)

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
)

// The trace is taken from outside the program: the benchmark wraps the
// net.Conns and the session.Handler it hands to the stack and timestamps
// what crosses them. Frames are identified by the sensor time T the
// benchmark decodes from the bytes its own wrappers see, so nothing inside
// the stack has to cooperate. A nil *tracer (and a nil *sessTrace) is the
// untraced run: every method is a no-op that returns its argument.

type role uint8

const (
	roleClient       role = iota // device end of a client → gateway (or → replica) conn
	roleGwClientLeg              // gateway end of the same conn
	roleGwReplicaLeg             // gateway end of a gateway → replica conn
	roleReplica                  // replica end of that conn
)

const (
	// maxTracedSamples bounds the per-session sample arrays and per-conn
	// frame logs; samples beyond it are simply not traced.
	maxTracedSamples = 1 << 18
	maxReadRecs      = 1 << 21
	// traceFileSamples is how many samples (lifecycles, frames) per session
	// are written to trace.json; the layer medians use every traced sample.
	traceFileSamples = 400
)

type tracer struct {
	// stride thins the traced IMU ordinals: 1 on paced and churn, the
	// window size on saturate so memory stays bounded at 300k samples/s.
	stride int

	mu         sync.Mutex
	conns      map[string]*connTrace
	sessions   []*sessTrace
	dialNs     []int64
	lifecycles []lifecycleStamps
	handlers   sync.Map // *session.Session → *handlerTrace
	ended      []*handlerTrace
}

func newTracer(stride int) *tracer {
	if stride < 1 {
		stride = 1
	}
	return &tracer{stride: stride, conns: map[string]*connTrace{}}
}

// frameRec is one frame seen by a conn's Write.
type frameRec struct {
	ord int   // IMU ordinal of the frame's T (uplink IMU, downlink pose)
	end int64 // stream offset just past the frame
	at  int64 // nanos() at Write entry
}

// readRec is one Read return.
type readRec struct{ off, at int64 }

// connTrace wraps one end of a TCP conn.
type connTrace struct {
	net.Conn
	tr           *tracer
	role         role
	key, peerKey string

	wmu          sync.Mutex
	label        string // Hello.App, when this end wrote the Hello
	wOff         int64
	imu, pose    []frameRec
	dataFrames   int64 // IMU, camera and pose frames written
	dataWrites   int64 // Write calls that carried at least one of them
	firstWriteAt int64

	rmu         sync.Mutex
	rOff        int64
	reads       []readRec
	firstReadAt int64
}

func (t *tracer) wrapConn(c net.Conn, r role) net.Conn {
	if t == nil {
		return c
	}
	local, remote := c.LocalAddr().String(), c.RemoteAddr().String()
	ct := &connTrace{Conn: c, tr: t, role: r, key: local + "|" + remote, peerKey: remote + "|" + local}
	t.mu.Lock()
	t.conns[ct.key] = ct
	t.mu.Unlock()
	return ct
}

func (c *connTrace) Write(b []byte) (int, error) {
	at := nanos()
	c.wmu.Lock()
	if c.firstWriteAt == 0 {
		c.firstWriteAt = at
	}
	data := int64(0)
	for rest := b; len(rest) > 0; {
		f, n, err := wire.Decode(rest)
		if err != nil {
			break // not on a frame boundary: leave the tail uncounted
		}
		c.wOff += int64(n)
		rest = rest[n:]
		switch f.Type {
		case wire.TypeHello:
			if h, err := wire.DecodeHello(f.Payload); err == nil {
				c.label = h.App
			}
		case wire.TypeIMU:
			data++
			if s, err := wire.DecodeIMU(f.Payload); err == nil {
				c.imu = c.keep(c.imu, s.T, at, c.tr.stride)
			}
		case wire.TypePose:
			data++
			if p, err := wire.DecodePose(f.Payload); err == nil {
				c.pose = c.keep(c.pose, p.T, at, 1)
			}
		case wire.TypeCamera:
			data++
		}
	}
	if data > 0 {
		c.dataFrames += data
		c.dataWrites++
	}
	c.wmu.Unlock()
	return c.Conn.Write(b)
}

// keep logs a frame if its ordinal is one the trace follows. Uplink IMU
// frames are thinned by the tracer's stride; poses are all kept, because a
// traced sample is acknowledged by whichever pose survives to cover it.
func (c *connTrace) keep(log []frameRec, T float64, at int64, stride int) []frameRec {
	ord := int(math.Round(T * imuRateHz))
	if ord%stride != 0 || len(log) >= maxTracedSamples {
		return log
	}
	return append(log, frameRec{ord: ord, end: c.wOff, at: at})
}

func (c *connTrace) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	at := nanos()
	c.rmu.Lock()
	if c.firstReadAt == 0 && n > 0 {
		c.firstReadAt = at
	}
	c.rOff += int64(n)
	if n > 0 && len(c.reads) < maxReadRecs {
		c.reads = append(c.reads, readRec{off: c.rOff, at: at})
	}
	c.rmu.Unlock()
	return n, err
}

// arrival is when the Read that completed the byte at stream offset end
// returned (0 if it was never logged).
func (c *connTrace) arrival(end int64) int64 {
	i := sort.Search(len(c.reads), func(i int) bool { return c.reads[i].off >= end })
	if i == len(c.reads) {
		return 0
	}
	return c.reads[i].at
}

type tracedListener struct {
	net.Listener
	tr   *tracer
	role role
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.tr.wrapConn(c, l.role), nil
}

func (t *tracer) wrapListener(ln net.Listener, r role) net.Listener {
	if t == nil {
		return ln
	}
	return tracedListener{Listener: ln, tr: t, role: r}
}

func (t *tracer) replicaDial(ns int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dialNs = append(t.dialNs, ns)
	t.mu.Unlock()
}

func (t *tracer) lifecycle(s lifecycleStamps) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lifecycles = append(t.lifecycles, s)
	t.mu.Unlock()
}

// handlerTrace is the replica-side record of one session.
type handlerTrace struct {
	label              string
	startAt, startDone int64
	endAt, endDone     int64
	frames             []handlerRec
}

type handlerRec struct {
	ord     int
	in, out int64
}

type tracedHandler struct {
	inner session.Handler
	tr    *tracer
}

func (t *tracer) wrapHandler(h session.Handler) session.Handler {
	if t == nil {
		return h
	}
	return &tracedHandler{inner: h, tr: t}
}

func (h *tracedHandler) SessionStart(s *session.Session) error {
	ht := &handlerTrace{label: s.Hello().App, startAt: nanos()}
	err := h.inner.SessionStart(s)
	ht.startDone = nanos()
	h.tr.handlers.Store(s, ht)
	return err
}

func (h *tracedHandler) SessionFrame(s *session.Session, f wire.Frame) error {
	if f.Type != wire.TypeIMU {
		return h.inner.SessionFrame(s, f)
	}
	in := nanos()
	ord := -1
	if sample, err := wire.DecodeIMU(f.Payload); err == nil {
		ord = int(math.Round(sample.T * imuRateHz))
	}
	err := h.inner.SessionFrame(s, f)
	out := nanos()
	if v, ok := h.tr.handlers.Load(s); ok && ord >= 0 && ord%h.tr.stride == 0 {
		ht := v.(*handlerTrace)
		if len(ht.frames) < maxTracedSamples {
			ht.frames = append(ht.frames, handlerRec{ord: ord, in: in, out: out})
		}
	}
	return err
}

func (h *tracedHandler) SessionEnd(s *session.Session, cause error) {
	at := nanos()
	h.inner.SessionEnd(s, cause)
	done := nanos()
	if v, ok := h.tr.handlers.LoadAndDelete(s); ok {
		ht := v.(*handlerTrace)
		ht.endAt, ht.endDone = at, done
		h.tr.mu.Lock()
		h.tr.ended = append(h.tr.ended, ht)
		h.tr.mu.Unlock()
	}
}

// sessTrace is the client-side record of one offload session: when each
// traced sample was published and when (and by which pose) it was covered.
type sessTrace struct {
	connKey string
	stride  int
	pub     []int64 // generator-owned; index = ordinal / stride
	ack     []int64 // receiver-owned
	ackPose []int32 // ordinal of the covering pose
}

func (t *tracer) session(c net.Conn) *sessTrace {
	ct, ok := c.(*connTrace)
	if t == nil || !ok {
		return nil
	}
	s := &sessTrace{connKey: ct.key, stride: t.stride}
	t.mu.Lock()
	t.sessions = append(t.sessions, s)
	t.mu.Unlock()
	return s
}

func (s *sessTrace) published(ord int, now int64) {
	if s == nil || ord%s.stride != 0 || len(s.pub) >= maxTracedSamples {
		return
	}
	s.pub = append(s.pub, now)
}

func (s *sessTrace) acked(ord int, now int64, poseOrd int) {
	if s == nil || ord%s.stride != 0 || len(s.ack) >= maxTracedSamples {
		return
	}
	s.ack = append(s.ack, now)
	s.ackPose = append(s.ackPose, int32(poseOrd))
}

// ---------------------------------------------------------------------------
// Resolution: after the run, stitch the logs into per-sample span chains.

// span is one layer crossing of one traced operation.
type span struct {
	Name, Node string // layer, and the node (process row of the trace) it runs on
	Start, End int64  // nanos()
}

// chain is one traced operation: contiguous spans from its first boundary
// to its last.
type chain struct {
	id    string // trace id: session label + ordinal
	group string // the session (or worker, or loop) the operation belongs to
	spans []span
}

func (c chain) total() int64 { return c.spans[len(c.spans)-1].End - c.spans[0].Start }

// Layer names on the offload path, in path order. The four socket transits
// are reported as one row (net.loopback_us) but kept apart in the trace.
var offloadPath = []struct{ name, node string }{
	{"bridge.uplink", "client"},
	{"net.client_gateway", "net"},
	{"fleet.gw_up", "gateway"},
	{"net.gateway_replica", "net"},
	{"session.read_decode", "replica"},
	{"bridge.handler", "replica"},
	{"bridge.pose_path", "replica"},
	{"net.replica_gateway", "net"},
	{"fleet.gw_down", "gateway"},
	{"net.gateway_client", "net"},
	{"bridge.downlink", "client"},
}

// directPath is the chain when the sessions dial a replica themselves.
var directPath = []struct{ name, node string }{
	{"bridge.uplink", "client"},
	{"net.client_replica", "net"},
	{"session.read_decode", "replica"},
	{"bridge.handler", "replica"},
	{"bridge.pose_path", "replica"},
	{"net.replica_client", "net"},
	{"bridge.downlink", "client"},
}

func byOrd(log []frameRec) map[int]frameRec {
	m := make(map[int]frameRec, len(log))
	for _, r := range log {
		if _, dup := m[r.ord]; !dup { // a retransmitted frame keeps its first crossing
			m[r.ord] = r
		}
	}
	return m
}

// offloadChains resolves every traced sample of every session into its
// eleven-span chain (seven when the sessions dialled a replica directly).
// unresolved counts samples with a boundary missing or out of order.
func (t *tracer) offloadChains() (chains []chain, unresolved int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	handlers := map[string]*handlerTrace{}
	for _, h := range t.ended {
		handlers[h.label] = h
	}
	t.handlers.Range(func(_, v any) bool {
		h := v.(*handlerTrace)
		handlers[h.label] = h
		return true
	})
	backends := map[string]*connTrace{}
	for _, c := range t.conns {
		if c.role == roleGwReplicaLeg {
			backends[c.label] = c
		}
	}
	for _, s := range t.sessions {
		c := t.conns[s.connKey]
		peer := t.conns[c.peerKey]
		h := handlers[c.label]
		if peer == nil || h == nil {
			unresolved += len(s.pub)
			continue
		}
		var g1, g2, r *connTrace
		if peer.role == roleReplica {
			r = peer // direct: no gateway on the path
		} else {
			g1, g2 = peer, backends[c.label]
			if g2 == nil || t.conns[g2.peerKey] == nil {
				unresolved += len(s.pub)
				continue
			}
			r = t.conns[g2.peerKey]
		}
		hrec := make(map[int]handlerRec, len(h.frames))
		for _, f := range h.frames {
			hrec[f.ord] = f
		}
		cIMU, rPose := byOrd(c.imu), byOrd(r.pose)
		var g2IMU, g1Pose map[int]frameRec
		if g1 != nil {
			g2IMU, g1Pose = byOrd(g2.imu), byOrd(g1.pose)
		}
		for i := range s.ack {
			ord := i * s.stride
			p := int(s.ackPose[i])
			up, hr, down := cIMU[ord], hrec[ord], rPose[p]
			var ts []int64
			if g1 == nil {
				ts = []int64{s.pub[i], up.at, r.arrival(up.end), hr.in, hr.out, down.at, c.arrival(down.end), s.ack[i]}
			} else {
				gu, gd := g2IMU[ord], g1Pose[p]
				ts = []int64{s.pub[i], up.at, g1.arrival(up.end), gu.at, r.arrival(gu.end), hr.in, hr.out,
					down.at, g2.arrival(down.end), gd.at, c.arrival(gd.end), s.ack[i]}
			}
			if !ascending(ts) {
				unresolved++
				continue
			}
			ch := chain{id: fmt.Sprintf("%s/%d", c.label, ord), group: c.label}
			path := offloadPath
			if g1 == nil {
				path = directPath
			}
			for k, layer := range path {
				ch.spans = append(ch.spans, span{Name: layer.name, Node: layer.node, Start: ts[k], End: ts[k+1]})
			}
			chains = append(chains, ch)
		}
		unresolved += len(s.pub) - len(s.ack)
	}
	return chains, unresolved
}

// ascending reports whether every boundary was found (non-zero) and none
// precedes the one before it.
func ascending(ts []int64) bool {
	for i, v := range ts {
		if v == 0 || (i > 0 && v < ts[i-1]) {
			return false
		}
	}
	return true
}

// lifecycleChains resolves phase A lifecycles: connect, admit, client
// start, first pose, teardown (client Close → replica SessionEnd return).
// The admit and handler rows come from the gateway's replica leg and the
// wrapped handler and are returned apart, since they nest inside the chain.
func (t *tracer) lifecycleChains() (chains []chain, admitUs, startUs, endUs, teardownUs []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	handlers := map[string]*handlerTrace{}
	for _, h := range t.ended {
		handlers[h.label] = h
	}
	for _, c := range t.conns {
		if c.role == roleGwReplicaLeg && c.firstWriteAt > 0 && c.firstReadAt >= c.firstWriteAt {
			admitUs = append(admitUs, float64(c.firstReadAt-c.firstWriteAt)/1e3)
		}
	}
	for _, s := range t.lifecycles {
		h := handlers[s.label]
		if h == nil {
			continue
		}
		ts := []int64{s.start, s.connected, s.welcomed, s.attached, s.posed, h.endDone}
		if !ascending(ts) {
			continue
		}
		ch := chain{id: s.label, group: "lifecycles"}
		for k, name := range []string{"net.connect", "fleet.admit", "bridge.client_start", "session.first_pose", "session.teardown"} {
			ch.spans = append(ch.spans, span{Name: name, Node: "lifecycle", Start: ts[k], End: ts[k+1]})
		}
		chains = append(chains, ch)
		startUs = append(startUs, float64(h.startDone-h.startAt)/1e3)
		endUs = append(endUs, float64(h.endDone-h.endAt)/1e3)
		teardownUs = append(teardownUs, float64(h.endDone-s.posed)/1e3)
	}
	return chains, admitUs, startUs, endUs, teardownUs
}

// framesPerWrite is data frames ÷ Write calls over the conns of one role.
func (t *tracer) framesPerWrite(r role) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var frames, writes int64
	for _, c := range t.conns {
		if c.role == r {
			frames += c.dataFrames
			writes += c.dataWrites
		}
	}
	if writes == 0 {
		return 0
	}
	return float64(frames) / float64(writes)
}

// layerBudget folds chains into one duration (µs) per span name such that
// the rows add up. Per-layer medians do not: every layer's distribution is
// skewed, so their medians sum to well under the median round trip. The
// rows are instead each layer's mean over the typical operations — the
// chains whose total lies between the quartiles — which sum exactly to
// those operations' mean total. total is the median over all chains, and
// unattributed is what the rows leave of it.
func layerBudget(chains []chain) (layers map[string]float64, total, unattributed float64) {
	layers = map[string]float64{}
	if len(chains) == 0 {
		return layers, 0, 0
	}
	sorted := append([]chain(nil), chains...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total() < sorted[j].total() })
	total = float64(sorted[len(sorted)/2].total()) / 1e3
	typical := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	sum := 0.0
	for _, c := range typical {
		for _, s := range c.spans {
			layers[s.Name] += float64(s.End-s.Start) / 1e3
		}
	}
	for name := range layers {
		layers[name] /= float64(len(typical))
		sum += layers[name]
	}
	return layers, total, total - sum
}

// contiguous reports whether each span of a chain starts where the one
// before it ended.
func (c chain) contiguous() bool {
	for i := 1; i < len(c.spans); i++ {
		if c.spans[i].Start != c.spans[i-1].End {
			return false
		}
	}
	return len(c.spans) > 0
}

// writeChromeTrace writes the first traceFileSamples chains of every
// session as Chrome trace JSON (chrome://tracing, Perfetto): one process per
// node, one thread per session, each operation a root span with its layer
// spans as children. Times are microseconds since process start.
func writeChromeTrace(workload string, chains []chain) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	pids := map[string]int{}
	tids := map[string]int{}
	perSession := map[string]int{}
	var events []event
	for _, c := range chains {
		sess := c.group
		if perSession[sess]++; perSession[sess] > traceFileSamples {
			continue
		}
		if _, ok := tids[sess]; !ok {
			tids[sess] = len(tids) + 1
		}
		pid := func(node string) int {
			if _, ok := pids[node]; !ok {
				pids[node] = len(pids) + 1
				events = append(events, event{Name: "process_name", Ph: "M", Pid: pids[node],
					Args: map[string]any{"name": node}})
			}
			return pids[node]
		}
		root := c.id + "#root"
		events = append(events, event{Name: workload, Ph: "X",
			Ts: float64(c.spans[0].Start) / 1e3, Dur: float64(c.total()) / 1e3,
			Pid: pid("operation"), Tid: tids[sess], Args: map[string]any{"trace_id": c.id, "span_id": root}})
		for _, s := range c.spans {
			events = append(events, event{Name: s.Name, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid(s.Node), Tid: tids[sess],
				Args: map[string]any{"trace_id": c.id, "parent": root}})
		}
	}
	dir := filepath.Join(benchDir(), "out", workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

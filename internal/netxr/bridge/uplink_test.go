package bridge

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/wire"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

var errInjected = errors.New("injected write failure")

// countConn counts Write calls — one per flush, so writes/frame is the
// coalescing ratio — and fails every write from failAt on (0 = never).
type countConn struct {
	net.Conn
	writes atomic.Int64
	failAt int64
}

func (c *countConn) Write(p []byte) (int, error) {
	if n := c.writes.Add(1); c.failAt > 0 && n >= c.failAt {
		return 0, errInjected
	}
	return c.Conn.Write(p)
}

// peer is the far end of a test client: it answers the Hello and hands
// every frame it reads, the Hello included, to sink in wire order.
// lastAck is what a resume Hello is told the fleet acknowledged.
type peer struct {
	lastAck uint64
	sink    func(wire.Frame)
	done    chan struct{} // closed when the stream ends
}

func (p *peer) serve(conn net.Conn) {
	defer close(p.done)
	r, w := wire.NewReader(conn), wire.NewWriter(conn)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		p.sink(f)
		if f.Type != wire.TypeHello {
			continue
		}
		h, _ := wire.DecodeHello(f.Payload)
		wel := wire.Welcome{Session: 1, ResumeToken: 7, Resumed: h.ResumeToken != 0}
		if wel.Resumed {
			wel.LastAckSeq = p.lastAck
		}
		if w.WriteFrame(wire.Frame{Type: wire.TypeWelcome, Payload: wire.AppendWelcome(nil, wel)}) != nil {
			return
		}
	}
}

// frameLog is a peer sink that keeps an owned copy of every frame.
type frameLog struct {
	mu     sync.Mutex
	frames []wire.Frame
}

func (l *frameLog) add(f wire.Frame) {
	f.Payload = append([]byte(nil), f.Payload...)
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
}

func (l *frameLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

func (l *frameLog) snapshot() []wire.Frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Frame(nil), l.frames...)
}

// leg is one connection of a test client: a counting conn whose far end
// is a peer logging what reaches the wire.
type leg struct {
	conn *countConn
	peer *peer
	log  *frameLog
}

func newLeg(t *testing.T, failAt int64, lastAck uint64) *leg {
	c, s := net.Pipe()
	l := &leg{conn: &countConn{Conn: c, failAt: failAt}, log: &frameLog{}}
	l.peer = &peer{lastAck: lastAck, sink: l.log.add, done: make(chan struct{})}
	go l.peer.serve(s)
	t.Cleanup(func() {
		_ = s.Close()
		<-l.peer.done
	})
	return l
}

// uplinkRig is a dialed client with the uplink plugin loaded into a
// private runtime.
type uplinkRig struct {
	*leg
	cl     *Client
	loader *runtime.Loader
	imu    *runtime.Topic
	cam    *runtime.Topic
}

func attachUplink(t *testing.T, cl *Client, l *leg) *uplinkRig {
	t.Helper()
	rig := &uplinkRig{leg: l, cl: cl, loader: runtime.NewLoader()}
	sb := rig.loader.Context().Switchboard
	rig.imu, rig.cam = sb.GetTopic(runtime.TopicIMU), sb.GetTopic(runtime.TopicCamera)
	if err := rig.loader.Load(cl.Uplink()); err != nil {
		t.Fatalf("load uplink: %v", err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = rig.loader.Shutdown()
	})
	return rig
}

func newUplinkRig(t *testing.T, opts DialOptions, failAt int64) *uplinkRig {
	t.Helper()
	l := newLeg(t, failAt, 0)
	cl, err := DialWith(l.conn, wire.Hello{App: "uplink-test"}, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return attachUplink(t, cl, l)
}

// burst publishes events while the client's writer is held, so the
// forwarder finds them all waiting when it runs — the deterministic
// stand-in for "published before the forwarder was scheduled".
func (r *uplinkRig) burst(publish func()) {
	r.cl.wmu.Lock()
	publish()
	r.cl.wmu.Unlock()
}

func (r *uplinkRig) publishIMU(from, to int) {
	for i := from; i <= to; i++ {
		r.imu.Publish(runtime.Event{T: float64(i), Value: sensors.IMUSample{T: float64(i)}})
	}
}

// imuTimes decodes the IMU frames among fs, in order.
func imuTimes(t *testing.T, fs []wire.Frame) []float64 {
	t.Helper()
	var ts []float64
	for _, f := range fs {
		if f.Type != wire.TypeIMU {
			continue
		}
		s, err := wire.DecodeIMU(f.Payload)
		if err != nil {
			t.Fatalf("imu frame does not decode: %v", err)
		}
		ts = append(ts, s.T)
	}
	return ts
}

func wantAscending(t *testing.T, ts []float64, from, to int) {
	t.Helper()
	if len(ts) != to-from+1 {
		t.Fatalf("got %d IMU frames, want %d", len(ts), to-from+1)
	}
	for i, v := range ts {
		if v != float64(from+i) {
			t.Fatalf("IMU frame %d carries T=%v, want %d (publish order)", i, v, from+i)
		}
	}
}

func ceilDiv(a, b int) int64 { return int64((a + b - 1) / b) }

// A burst the forwarder finds waiting costs one write per wire.FlushWindow
// frames, not one per frame, and arrives in publish order.
func TestUplinkBurstCoalesces(t *testing.T) {
	rig := newUplinkRig(t, DialOptions{}, 0)
	base := rig.conn.writes.Load() // the Hello
	rig.burst(func() { rig.publishIMU(1, 64) })
	waitCond(t, func() bool { return rig.log.len() == 1+64 })
	if w := rig.conn.writes.Load() - base; w > ceilDiv(64, wire.FlushWindow)+1 {
		t.Fatalf("64-frame burst took %d writes, want <= %d", w, ceilDiv(64, wire.FlushWindow)+1)
	}
	wantAscending(t, imuTimes(t, rig.log.snapshot()), 1, 64)
}

// Flush-on-exhaustion means a lone sample is never held back for
// company: it reaches the peer with no second sample and no timer.
func TestUplinkLoneSampleFlushes(t *testing.T) {
	rig := newUplinkRig(t, DialOptions{}, 0)
	rig.publishIMU(1, 1)
	waitCond(t, func() bool { return rig.log.len() == 2 })
	if err := rig.cl.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
}

// Both subscriptions drain into one batch: a camera frame inside an IMU
// burst strands nothing in the writer, and Close flushes what is still
// pending ahead of its Bye, in the same write.
func TestUplinkMixedBurstAndByeLast(t *testing.T) {
	rig := newUplinkRig(t, DialOptions{}, 0)
	rig.burst(func() {
		rig.publishIMU(1, 20)
		rig.cam.Publish(runtime.Event{T: 20.5, Value: sensors.CameraFrame{Seq: 1, T: 20.5}})
		rig.publishIMU(21, 40)
	})
	waitCond(t, func() bool { return rig.log.len() == 1+41 })

	if err := rig.cl.queue(imuFrame(41), true, false); err != nil { // pending, unflushed
		t.Fatal(err)
	}
	before := rig.conn.writes.Load()
	if err := rig.cl.Close(); err != nil {
		t.Fatal(err)
	}
	<-rig.peer.done
	if w := rig.conn.writes.Load() - before; w != 1 {
		t.Fatalf("Close took %d writes, want 1 (pending frame and Bye together)", w)
	}
	fs := rig.log.snapshot()
	wantAscending(t, imuTimes(t, fs), 1, 41)
	var cams int
	for _, f := range fs {
		if f.Type == wire.TypeCamera {
			cams++
		}
	}
	if cams != 1 || len(fs) != 1+42+1 {
		t.Fatalf("peer saw %d camera frames in %d frames, want 1 in %d", cams, len(fs), 1+42+1)
	}
	if last := fs[len(fs)-1]; last.Type != wire.TypeBye {
		t.Fatalf("last frame on the wire is %v, want bye", last.Type)
	}
}

// A flush that fails mid-burst latches one error and stops the
// forwarder; every frame that was queued is already in the send window,
// so the redialer's resume retransmits what the peer never got.
func TestUplinkWriteErrorKeepsQueuedFramesForResume(t *testing.T) {
	win := NewSendWindow(0)
	var legs []*leg
	var failAt int64 = 3 // Hello, one flush, then the failure
	var acked uint64
	rd := &Redialer{
		Dial: func() (net.Conn, error) {
			l := newLeg(t, failAt, acked)
			legs = append(legs, l)
			return l.conn, nil
		},
		Hello:  wire.Hello{App: "uplink-test"},
		Window: win,
		Sleep:  func(time.Duration) {},
	}
	cl, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	first := attachUplink(t, cl, legs[0])
	// more than two windows: the good flush and the failed one are both
	// whole windows (or the first sample alone), with samples left over
	const burst = 2*wire.FlushWindow + wire.FlushWindow/2
	first.burst(func() { first.publishIMU(1, burst) })
	waitCond(t, func() bool { return cl.Err() != nil })
	failure := cl.Err()
	if !errors.Is(failure, errInjected) || !strings.HasPrefix(failure.Error(), "uplink imu") {
		t.Fatalf("Err() = %v, want the injected failure from the IMU uplink", failure)
	}
	if err := first.loader.Shutdown(); err != nil { // waits for the forwarder
		t.Fatal(err)
	}
	if w := first.conn.writes.Load(); w != 3 {
		t.Fatalf("forwarder kept writing after the failure: %d writes, want 3", w)
	}
	if cl.Err() != failure {
		t.Fatalf("Err() changed after the first failure: %v", cl.Err())
	}
	_ = cl.Close()
	<-first.peer.done
	// the one good flush carried a full batch, or the first sample alone
	// if the forwarder saw it before the second was published
	delivered := imuTimes(t, first.log.snapshot())
	got := len(delivered)
	wantAscending(t, delivered, 1, got)
	// the batch whose flush failed was queued too, so the window holds it
	queued := got + wire.FlushWindow
	if int(win.Head()) != queued || win.Len() != queued {
		t.Fatalf("window head=%d len=%d, want %d queued frames", win.Head(), win.Len(), queued)
	}

	failAt, acked = 0, uint64(got)
	cl2, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if !cl2.Welcome().Resumed {
		t.Fatalf("welcome = %+v, want resumed", cl2.Welcome())
	}
	waitCond(t, func() bool { return legs[1].log.len() == 1+wire.FlushWindow })
	wantAscending(t, imuTimes(t, legs[1].log.snapshot()), got+1, queued)
}

// With a capture tap the binlog's uplink records are the wire's frames
// in the wire's order, across coalesced batches and a QoE report racing
// the forwarder.
func TestUplinkCaptureOrderEqualsWireOrder(t *testing.T) {
	var buf bytes.Buffer
	cap, err := binlog.NewWriter(&buf, binlog.Meta{Label: "client"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig := newUplinkRig(t, DialOptions{Capture: cap}, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := rig.cl.SendQoE(telemetry.MTPSample{T: float64(i)}); err != nil {
				t.Errorf("qoe: %v", err)
			}
		}
	}()
	rig.burst(func() {
		rig.publishIMU(1, 30)
		rig.cam.Publish(runtime.Event{T: 30.5, Value: sensors.CameraFrame{Seq: 1, T: 30.5}})
		rig.publishIMU(31, 60)
	})
	wg.Wait()
	waitCond(t, func() bool { return rig.log.len() == 1+61+8 })
	_ = rig.cl.Close()
	<-rig.peer.done
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := binlog.DecodeLog(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var up []wire.Frame
	for _, rec := range l.Records {
		if rec.Dir == binlog.DirUp {
			up = append(up, rec.Frame)
		}
	}
	onWire := rig.log.snapshot()
	if len(up) != len(onWire) {
		t.Fatalf("binlog holds %d uplink records, the wire carried %d", len(up), len(onWire))
	}
	for i := range up {
		if up[i].Type != onWire[i].Type || !bytes.Equal(up[i].Payload, onWire[i].Payload) {
			t.Fatalf("record %d is %v, the wire's frame %d is %v", i, up[i].Type, i, onWire[i].Type)
		}
	}
}

// RetransmitTo replays the gap through the coalescing path: one write
// per batch, order kept.
func TestRetransmitCoalesces(t *testing.T) {
	win := NewSendWindow(0)
	const gap = 2*wire.FlushWindow + wire.FlushWindow/2
	for i := 1; i <= gap; i++ {
		win.Push(imuFrame(float64(i)))
	}
	rig := newUplinkRig(t, DialOptions{}, 0)
	base := rig.conn.writes.Load()
	sent, lost, err := win.RetransmitTo(rig.cl, 0)
	if err != nil || sent != gap || lost != 0 {
		t.Fatalf("RetransmitTo = %d sent, %d lost, err %v; want %d, 0, nil", sent, lost, err, gap)
	}
	if w := rig.conn.writes.Load() - base; w > ceilDiv(gap, wire.FlushWindow) {
		t.Fatalf("%d-frame gap took %d writes, want <= %d", gap, w, ceilDiv(gap, wire.FlushWindow))
	}
	waitCond(t, func() bool { return rig.log.len() == 1+gap })
	wantAscending(t, imuTimes(t, rig.log.snapshot()), 1, gap)
	if win.Head() != gap {
		t.Fatalf("retransmission renumbered the window: head %d, want %d", win.Head(), gap)
	}
}

// Stopping the downlink is a clean stop: the reader it wakes by closing
// the conn must not latch that close as a transport error. Run with
// -race -count=50 (scripts/check.sh does): the flag has to be set before
// the conn closes, or the reader can observe the close first.
func TestDownlinkStopLeavesNoError(t *testing.T) {
	for i := 0; i < 20; i++ {
		cl, err := DialWith(newLeg(t, 0, 0).conn, wire.Hello{App: "stop-test"}, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		loader := runtime.NewLoader()
		if err := loader.Load(cl.Downlink()); err != nil {
			t.Fatal(err)
		}
		if err := loader.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Err(); err != nil {
			t.Fatalf("round %d: Err() after a clean stop = %v, want nil", i, err)
		}
	}
}

// Close racing the uplink forwarder: Close puts the Bye behind whatever is
// queued and gives the writer back to the wire pool under the writer
// lock, so the forwarder's next frame gets errWritesEnded instead of a
// buffer another conn may own, and nothing reaches the wire after the
// Bye. Writers reissued from the pool while the forwarder keeps going
// give the race detector the overlap to see. Run with -race -count=50
// (scripts/check.sh does).
func TestCloseRacesUplinkForwarder(t *testing.T) {
	for round := 0; round < 10; round++ {
		rig := newUplinkRig(t, DialOptions{}, 0)
		stop := make(chan struct{})
		published := make(chan struct{})
		go func() { // the sensor keeps publishing through the Close
			defer close(published)
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rig.publishIMU(i, i)
			}
		}()
		waitCond(t, func() bool { return rig.log.len() > 4 })
		if err := rig.cl.Close(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for rig.cl.Err() == nil && time.Now().Before(deadline) {
			w := wire.NewWriter(discard{}) // a next owner of a pooled writer
			w.Queue(imuFrame(-1))
			_ = w.Flush()
			w.Release()
		}
		close(stop)
		<-published
		if err := rig.cl.Err(); !errors.Is(err, errWritesEnded) {
			t.Fatalf("round %d: forwarder after Close: Err() = %v, want errWritesEnded", round, err)
		}
		<-rig.peer.done
		fs := rig.log.snapshot()
		for i, f := range fs {
			if f.Type == wire.TypeBye && i != len(fs)-1 {
				t.Fatalf("round %d: %d frames reached the wire after the Bye", round, len(fs)-1-i)
			}
		}
		if last := fs[len(fs)-1]; last.Type != wire.TypeBye {
			t.Fatalf("round %d: last frame on the wire is %v, want bye", round, last.Type)
		}
		// an unthrottled publisher outruns the subscription's depth, so
		// latest-wins displaces samples: order holds, contiguity need not
		ts := imuTimes(t, fs)
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("round %d: IMU frame %d carries T=%v after %v", round, i, ts[i], ts[i-1])
			}
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkUplinkBurst drives 64-deep IMU bursts through the uplink
// plugin over a loopback TCP pair and reports the end-to-end frame rate
// and the coalescing ratio (1.0 = one syscall per frame).
func BenchmarkUplinkBurst(b *testing.B) {
	const depth = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var got atomic.Int64
	arrived := make(chan struct{}, 1) // a wake-up, not a count: the waiter re-checks got
	p := &peer{done: make(chan struct{}), sink: func(f wire.Frame) {
		if f.Type == wire.TypeIMU && got.Add(1)%depth == 0 {
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
	}}
	go func() {
		s, err := ln.Accept()
		if err != nil {
			close(p.done)
			return
		}
		defer s.Close()
		p.serve(s)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	conn := &countConn{Conn: c}
	cl, err := DialWith(conn, wire.Hello{App: "bench"}, DialOptions{})
	if err != nil {
		b.Fatal(err)
	}
	loader := runtime.NewLoader()
	imu := loader.Context().Switchboard.GetTopic(runtime.TopicIMU)
	if err := loader.Load(cl.Uplink()); err != nil {
		b.Fatal(err)
	}
	base := conn.writes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < depth; k++ {
			t := float64(i*depth + k)
			imu.Publish(runtime.Event{T: t, Value: sensors.IMUSample{T: t}})
		}
		for got.Load() < int64((i+1)*depth) {
			<-arrived
		}
	}
	b.StopTimer()
	frames := float64(b.N * depth)
	b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(conn.writes.Load()-base)/frames, "writes/frame")
	_ = cl.Close()
	_ = loader.Shutdown()
	<-p.done
}

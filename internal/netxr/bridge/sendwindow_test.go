package bridge

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

func imuFrame(t float64) wire.Frame {
	return wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, sensors.IMUSample{T: t})}
}

// TestSendWindowResumeMapping exercises the ack→client sequence mapping
// directly: plain gap, truncated gap with permanent loss, and the
// offset carrying across a second resume.
func TestSendWindowResumeMapping(t *testing.T) {
	w := NewSendWindow(8)
	for i := 1; i <= 5; i++ {
		w.push(imuFrame(float64(i)))
	}
	if w.Head() != 5 || w.Len() != 5 {
		t.Fatalf("head=%d len=%d", w.Head(), w.Len())
	}
	// server acked 2 → retransmit 3,4,5
	frames, lost := w.resume(2)
	if lost != 0 || len(frames) != 3 {
		t.Fatalf("resume(2): %d frames, lost %d", len(frames), lost)
	}
	for i, f := range frames {
		s, err := wire.DecodeIMU(f.Payload)
		if err != nil || s.T != float64(i+3) {
			t.Fatalf("retransmit frame %d = T%.0f err=%v, want T%d", i, s.T, err, i+3)
		}
	}

	// truncation: capacity 2, five pushes → only 4,5 retained
	w = NewSendWindow(2)
	for i := 1; i <= 5; i++ {
		w.push(imuFrame(float64(i)))
	}
	frames, lost = w.resume(0)
	if lost != 3 || len(frames) != 2 {
		t.Fatalf("truncated resume: %d frames, lost %d (want 2, 3)", len(frames), lost)
	}
	if w.Lost() != 3 {
		t.Fatalf("Lost() = %d", w.Lost())
	}
	// the server now relays those 2 and acks 2 (its own count); with the
	// 3-frame offset that maps to client seq 5 = head → nothing pending
	frames, lost = w.resume(2)
	if lost != 0 || len(frames) != 0 {
		t.Fatalf("post-offset resume: %d frames, lost %d (want 0, 0)", len(frames), lost)
	}
}

// ackAdmission admits every handshake, handing out a fixed resume token
// and acking a configurable uplink seq on resume.
type ackAdmission struct {
	mu      sync.Mutex
	lastAck uint64
	resumes int
}

func (a *ackAdmission) Admit(id uint64, h wire.Hello) (wire.Welcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := wire.Welcome{ResumeToken: 77, Resumed: h.ResumeToken != 0}
	if w.Resumed {
		w.LastAckSeq = a.lastAck
		a.resumes++
	}
	return w, nil
}

// TestRedialerRetransmitsGapAfterResume is the end-to-end satellite
// test: a client streams uplink frames through a send window, the
// connection dies, and on the resumed connection the server receives
// exactly the unacked tail [last_ack_seq+1, head], in order.
func TestRedialerRetransmitsGapAfterResume(t *testing.T) {
	adm := &ackAdmission{}
	var mu sync.Mutex
	var got []float64
	h := &funcHandler{onFrame: func(s *session.Session, f wire.Frame) error {
		if f.Type == wire.TypeIMU {
			sample, err := wire.DecodeIMU(f.Payload)
			if err != nil {
				return err
			}
			mu.Lock()
			got = append(got, sample.T)
			mu.Unlock()
		}
		return nil
	}}
	reg := telemetry.NewRegistry()
	srv := session.NewServer(session.Config{Admission: adm, IdleTimeout: -1}, h)
	defer srv.Shutdown(context.Background())

	win := NewSendWindow(64)
	win.Instrument(reg)
	r := &Redialer{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			if srv.HandleConn(s) == nil {
				_ = c.Close()
				return nil, errors.New("refused")
			}
			return c, nil
		},
		Hello:  wire.Hello{App: "xr"},
		Window: win,
		Sleep:  func(time.Duration) {},
	}

	c1, err := r.Connect()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := c1.write(imuFrame(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 5 })
	_ = c1.Close() // the link dies; the server has acked only 2 of the 5

	adm.mu.Lock()
	adm.lastAck = 2
	adm.mu.Unlock()

	c2, err := r.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Welcome().Resumed {
		t.Fatalf("welcome = %+v, want resumed", c2.Welcome())
	}
	// the redialer retransmitted [3,5] before returning: the server sees
	// the tail again, gap-free and in order
	waitCond(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 8 })
	mu.Lock()
	tail := append([]float64(nil), got[5:]...)
	mu.Unlock()
	for i, want := range []float64{3, 4, 5} {
		if tail[i] != want {
			t.Fatalf("retransmitted tail = %v, want [3 4 5]", tail)
		}
	}
	if v := reg.Snapshot().Counters["illixr_netxr_uplink_retransmit_total"]; v != 3 {
		t.Fatalf("uplink_retransmit_total = %d, want 3", v)
	}

	// new frames on the resumed link keep extending the same window
	if err := c2.write(imuFrame(6)); err != nil {
		t.Fatal(err)
	}
	if win.Head() != 6 {
		t.Fatalf("window head = %d, want 6", win.Head())
	}
}

type funcHandler struct {
	onFrame func(*session.Session, wire.Frame) error
}

func (h *funcHandler) SessionStart(*session.Session) error { return nil }
func (h *funcHandler) SessionFrame(s *session.Session, f wire.Frame) error {
	if h.onFrame != nil {
		return h.onFrame(s, f)
	}
	return nil
}
func (h *funcHandler) SessionEnd(*session.Session, error) {}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// Head returns the client sequence number of the last pushed frame.
func (w *SendWindow) Head() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.head
}

// Instrument attaches retransmit/truncation counters and a depth gauge.
func (w *SendWindow) Instrument(reg *telemetry.Registry) {
	if w == nil || reg == nil {
		return
	}
	w.retransC = reg.Counter(telemetry.MetricName("netxr", "uplink_retransmit_total"))
	w.truncC = reg.Counter(telemetry.MetricName("netxr", "uplink_window_truncated_total"))
	w.depthG = reg.Gauge(telemetry.MetricName("netxr", "uplink_window_depth"))
}

// Len returns the number of retained (unacked) frames.
func (w *SendWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// Lost returns how many frames were evicted before they could be
// retransmitted — permanently lost to the server.
func (w *SendWindow) Lost() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.offset
}

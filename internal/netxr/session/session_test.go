package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"illixr/internal/netxr/netsim"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// collectHandler records lifecycle events and frames.
type collectHandler struct {
	mu      sync.Mutex
	started []uint64
	frames  []wire.Frame
	ended   map[uint64]error
	onFrame func(s *Session, f wire.Frame) error
}

func newCollect() *collectHandler {
	return &collectHandler{ended: map[uint64]error{}}
}

func (h *collectHandler) SessionStart(s *Session) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.started = append(h.started, s.ID())
	return nil
}

func (h *collectHandler) SessionFrame(s *Session, f wire.Frame) error {
	if h.onFrame != nil {
		return h.onFrame(s, f)
	}
	cp := f
	cp.Payload = append([]byte(nil), f.Payload...)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.frames = append(h.frames, cp)
	return nil
}

func (h *collectHandler) SessionEnd(s *Session, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ended[s.ID()] = err
}

func (h *collectHandler) frameCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.frames)
}

func (h *collectHandler) endedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ended)
}

// clientHandshake performs the Hello/Welcome exchange from the client side.
func clientHandshake(t *testing.T, conn net.Conn) (*wire.Reader, *wire.Writer, wire.Welcome) {
	t.Helper()
	r, w := wire.NewReader(conn), wire.NewWriter(conn)
	hello := wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "test", IMURateHz: 500, CamRateHz: 15})
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: hello}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if f.Type != wire.TypeWelcome {
		t.Fatalf("first reply = %v, want welcome", f.Type)
	}
	welcome, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return r, w, welcome
}

func TestHandshakeAndEcho(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{Metrics: telemetry.NewRegistry()}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	if srv.HandleConn(server) == nil {
		t.Fatal("conn refused")
	}
	r, w, welcome := clientHandshake(t, client)
	if welcome.Session == 0 || welcome.Proto != wire.Version {
		t.Fatalf("welcome: %+v", welcome)
	}

	// in-layer ping: echoed as pong without touching the handler
	ping := wire.AppendPing(nil, wire.Ping{Seq: 3, T: 0.5})
	if err := w.WriteFrame(wire.Frame{Type: wire.TypePing, Payload: ping}); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypePong {
		t.Fatalf("got %v, want pong", f.Type)
	}
	pong, err := wire.DecodePing(f.Payload)
	if err != nil || pong.Seq != 3 {
		t.Fatalf("pong: %+v err %v", pong, err)
	}

	// data frame reaches the handler
	imu := wire.AppendIMU(nil, sensors.IMUSample{T: 0.1})
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: imu}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.frameCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.frameCount() != 1 {
		t.Fatal("handler never saw the IMU frame")
	}
}

func TestHandshakeVersionSkew(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	srv.HandleConn(server)

	w := wire.NewWriter(client)
	hello := wire.AppendHello(nil, wire.Hello{Proto: wire.Version + 1, App: "old"})
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	// server answers Bye then closes
	r := wire.NewReader(client)
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("expected a bye, got %v", err)
	}
	if f.Type != wire.TypeBye {
		t.Fatalf("got %v, want bye", f.Type)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Len() != 0 {
		t.Fatal("skewed session still registered")
	}
}

func TestHandshakeFirstFrameNotHello(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	srv.HandleConn(server)

	w := wire.NewWriter(client)
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, sensors.IMUSample{})}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.endedCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, err := range h.ended {
		if !errors.Is(err, errHandshake) {
			t.Fatalf("end err = %v, want ErrHandshake", err)
		}
	}
	if len(h.started) != 0 {
		t.Fatal("SessionStart ran without a handshake")
	}
}

func TestLatestWinsDisplacement(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	r, _, _ := clientHandshake(t, client)

	// park the writer in a Write the client has not read yet: left idle it
	// could wake between two Sends and put an early pose on the wire
	if err := sess.Send(wire.Frame{Type: wire.TypePong}, Reliable); err != nil {
		t.Fatal(err)
	}
	for sess.queueDepth() != 0 {
		time.Sleep(100 * time.Microsecond)
	}

	// queue five poses; only the newest survives
	var bufs [5][]byte
	for i := range bufs {
		bufs[i] = wire.AppendPose(nil, wire.Pose{T: float64(i)})
		if err := sess.Send(wire.Frame{Type: wire.TypePose, Payload: bufs[i]}, LatestWins); err != nil {
			t.Fatal(err)
		}
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != wire.TypePong {
		t.Fatalf("first frame = %v, %v, want the parked pong", f.Type, err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodePose(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != 4 {
		t.Fatalf("delivered pose T=%v, want the newest (4)", got.T)
	}
	if _, dropped, _, _ := sess.Stats(); dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
}

func TestReliableBackpressure(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{QueueLen: 4}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	clientHandshake(t, client)

	// the client is not reading; one frame may be in flight in the writer,
	// so fill until the queue rejects
	var rejected bool
	payload := wire.AppendPing(nil, wire.Ping{})
	for i := 0; i < 16; i++ {
		err := sess.Send(wire.Frame{Type: wire.TypeQoE, Payload: payload}, Reliable)
		if errors.Is(err, errBackpressure) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Fatal("reliable queue never pushed back")
	}
}

func TestIdleTimeoutReapsSession(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{IdleTimeout: 50 * time.Millisecond}, h)
	defer srv.Shutdown(context.Background())

	client, server := net.Pipe()
	defer client.Close()
	srv.HandleConn(server)
	clientHandshake(t, client)

	deadline := time.Now().Add(3 * time.Second)
	for srv.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Len() != 0 {
		t.Fatal("idle session never reaped")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, err := range h.ended {
		if !errors.Is(err, errIdleTimeout) {
			t.Fatalf("end err = %v, want ErrIdleTimeout", err)
		}
	}
}

func TestGracefulDrainFlushesBeforeBye(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)

	client, server := net.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	r, _, _ := clientHandshake(t, client)

	// queue one reliable and one latest-wins frame, then drain: the client
	// must see data first and the Bye strictly last
	if err := sess.Send(wire.Frame{Type: wire.TypeQoE,
		Payload: wire.AppendQoE(nil, wire.QoE{Session: 1})}, Reliable); err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(wire.Frame{Type: wire.TypePose,
		Payload: wire.AppendPose(nil, wire.Pose{T: 9})}, LatestWins); err != nil {
		t.Fatal(err)
	}
	go srv.Shutdown(context.Background())

	var types []wire.Type
	for {
		f, err := r.ReadFrame()
		if err != nil {
			break
		}
		types = append(types, f.Type)
		if f.Type == wire.TypeBye {
			break
		}
	}
	if len(types) != 3 || types[0] != wire.TypeQoE || types[1] != wire.TypePose || types[2] != wire.TypeBye {
		t.Fatalf("drain order = %v, want [qoe pose bye]", types)
	}
}

func TestServerFullRefusal(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{MaxSessions: 1}, h)
	defer srv.Shutdown(context.Background())

	c1, s1 := net.Pipe()
	defer c1.Close()
	if srv.HandleConn(s1) == nil {
		t.Fatal("first conn refused")
	}
	clientHandshake(t, c1)

	c2, s2 := net.Pipe()
	defer c2.Close()
	if srv.HandleConn(s2) != nil {
		t.Fatal("second conn admitted past the cap")
	}
	f, err := wire.NewReader(c2).ReadFrame()
	if err != nil {
		t.Fatalf("refusal read: %v", err)
	}
	bye, err := wire.DecodeBye(f.Payload)
	if f.Type != wire.TypeBye || err != nil || bye.Reason != "server full" {
		t.Fatalf("refusal = %v %+v err %v", f.Type, bye, err)
	}
}

func TestInjectedLinkFailureEndsSession(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{Metrics: telemetry.NewRegistry()}, h)
	defer srv.Shutdown(context.Background())

	client, server := netsim.Pipe()
	defer client.Close()
	sess := srv.HandleConn(server)
	_, w, _ := clientHandshake(t, client)

	// sever the server→client direction mid-stream; the session's writer
	// must observe the failure and terminate the session
	server.FailAfter(0)
	for i := 0; i < 50 && srv.Len() > 0; i++ {
		_ = sess.Send(wire.Frame{Type: wire.TypePose,
			Payload: wire.AppendPose(nil, wire.Pose{T: float64(i)})}, LatestWins)
		_ = w.WriteFrame(wire.Frame{Type: wire.TypeIMU,
			Payload: wire.AppendIMU(nil, sensors.IMUSample{T: float64(i)})})
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	for srv.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Len() != 0 {
		t.Fatal("session survived a dead link")
	}
}

// TestMultiSessionSoak drives 8 concurrent sessions over net.Pipe with
// real goroutines — run under -race this is the concurrency proof for the
// session layer (the deterministic half lives in the network bench).
func TestMultiSessionSoak(t *testing.T) {
	const nSessions = 8
	const nFrames = 200

	reg := telemetry.NewRegistry()
	var handled atomic.Uint64
	h := newCollect()
	h.onFrame = func(s *Session, f wire.Frame) error {
		if f.Type == wire.TypeIMU {
			if _, err := wire.DecodeIMU(f.Payload); err != nil {
				return fmt.Errorf("soak decode: %w", err)
			}
			handled.Add(1)
			// answer every 10th sample with a pose (latest-wins)
			if handled.Load()%10 == 0 {
				_ = s.Send(wire.Frame{Type: wire.TypePose,
					Payload: wire.AppendPose(nil, wire.Pose{T: 1})}, LatestWins)
			}
		}
		return nil
	}
	srv := NewServer(Config{Metrics: reg, MaxSessions: nSessions}, h)

	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		client, server := netsim.Pipe()
		if srv.HandleConn(server) == nil {
			t.Fatal("conn refused")
		}
		wg.Add(1)
		go func(conn net.Conn, idx int) {
			defer wg.Done()
			defer conn.Close()
			r, w, _ := clientHandshake(t, conn)
			go func() { // drain the downlink so the server writer never blocks
				for {
					if _, err := r.ReadFrame(); err != nil {
						return
					}
				}
			}()
			var buf []byte
			for j := 0; j < nFrames; j++ {
				buf = wire.AppendIMU(buf[:0], sensors.IMUSample{T: float64(j) * 0.002})
				if err := w.WriteFrame(wire.Frame{Type: wire.TypeIMU, Payload: buf}); err != nil {
					t.Errorf("session %d frame %d: %v", idx, j, err)
					return
				}
			}
			if err := w.WriteFrame(wire.Frame{Type: wire.TypeBye,
				Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})}); err != nil {
				t.Errorf("session %d bye: %v", idx, err)
			}
		}(client, i)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := handled.Load(); got != nSessions*nFrames {
		t.Fatalf("handled %d IMU frames, want %d", got, nSessions*nFrames)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.started) != nSessions || len(h.ended) != nSessions {
		t.Fatalf("lifecycle: %d started %d ended", len(h.started), len(h.ended))
	}
	for id, err := range h.ended {
		if err != nil {
			t.Fatalf("session %d ended with %v", id, err)
		}
	}
}

func TestSessionsListing(t *testing.T) {
	h := newCollect()
	srv := NewServer(Config{}, h)
	defer srv.Shutdown(context.Background())

	var conns []net.Conn
	for i := 0; i < 3; i++ {
		client, server := net.Pipe()
		conns = append(conns, client)
		srv.HandleConn(server)
		clientHandshake(t, client)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	infos := srv.Sessions()
	if len(infos) != 3 {
		t.Fatalf("listed %d sessions, want 3", len(infos))
	}
	for i, info := range infos {
		if i > 0 && infos[i-1].ID >= info.ID {
			t.Fatal("listing not sorted by id")
		}
		if info.App != "test" {
			t.Fatalf("app = %q", info.App)
		}
	}
}

package replay_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"illixr/internal/mathx"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/replay"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// goldenDir is where the regression fingerprints live (ISSUE: goldens
// are checked in under internal/netxr/binlog/testdata).
var goldenDir = filepath.Join("..", "binlog", "testdata")

// poseEcho answers every IMU frame with one latest-wins pose so the
// downlink path through the relay carries traffic.
type poseEcho struct{}

func (poseEcho) SessionStart(*session.Session) error { return nil }
func (poseEcho) SessionEnd(*session.Session, error)  {}
func (poseEcho) SessionFrame(s *session.Session, f wire.Frame) error {
	if f.Type == wire.TypeIMU {
		imu, err := wire.DecodeIMU(f.Payload)
		if err != nil {
			return err
		}
		return s.Send(wire.Frame{Type: wire.TypePose,
			Payload: wire.AppendPose(nil, wire.Pose{T: imu.T})}, session.LatestWins)
	}
	return nil
}

// goldenFleet is a 2-replica gateway fleet assembled from exported
// API only (the in-package fleet test helper is not visible here).
type goldenFleet struct {
	coord *fleet.Coordinator
	gw    *fleet.Gateway
	srvs  []*session.Server

	mu   sync.Mutex
	down map[int]bool
}

// newGoldenFleet starts n replicas of the given coordinator capacity;
// maxSessions is each server's own cap (0: the default). A server that
// refuses a conn reads as a failed dial, which marks its replica Down.
func newGoldenFleet(t *testing.T, n, capacity, maxSessions int, record *binlog.Writer) *goldenFleet {
	t.Helper()
	gf := &goldenFleet{down: map[int]bool{}}
	gf.coord = fleet.NewCoordinator(fleet.Config{ReplicaCapacity: capacity, TokenSeed: 1,
		RetryAfter: 50 * time.Millisecond, ResumeBurst: 64, ResumeWindowSec: 1})
	for i := 0; i < n; i++ {
		srv := session.NewServer(session.Config{IdleTimeout: -1, MaxSessions: maxSessions}, poseEcho{})
		gf.srvs = append(gf.srvs, srv)
		gf.coord.AddReplica(i, nil)
	}
	gf.gw = &fleet.Gateway{Coord: gf.coord, Dial: gf.dial, Record: record}
	t.Cleanup(func() {
		_ = gf.gw.Shutdown(context.Background())
		for _, s := range gf.srvs {
			_ = s.Shutdown(context.Background())
		}
	})
	return gf
}

func (gf *goldenFleet) dial(id int) (net.Conn, error) {
	gf.mu.Lock()
	dead := gf.down[id]
	gf.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("replica %d: connection refused", id)
	}
	c, s := net.Pipe()
	if gf.srvs[id].HandleConn(s) == nil {
		_ = c.Close()
		return nil, fmt.Errorf("replica %d: connection refused", id)
	}
	return c, nil
}

func (gf *goldenFleet) kill(id int) {
	gf.mu.Lock()
	gf.down[id] = true
	gf.mu.Unlock()
	gf.srvs[id].Abort(nil)
	gf.coord.KillReplica(id)
}

// recordedClient is a wire-level client whose traffic is captured into
// its own binlog.Writer — the client side of the tap contract: one
// writer per client, spanning resumes (like bridge.Redialer.Capture).
type recordedClient struct {
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
	wel  wire.Welcome
	cap  *binlog.Writer
}

func (gf *goldenFleet) connect(t *testing.T, hello wire.Hello, cap *binlog.Writer) *recordedClient {
	t.Helper()
	c, g := net.Pipe()
	gf.gw.HandleConn(g)
	r, w := wire.NewReader(c), wire.NewWriter(c)
	hello.Proto = wire.Version
	hf := wire.Frame{Type: wire.TypeHello, Payload: wire.AppendHello(nil, hello)}
	if err := w.WriteFrame(hf); err != nil {
		t.Fatalf("hello: %v", err)
	}
	_ = cap.Record(binlog.DirUp, hf)
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("awaiting welcome: %v", err)
	}
	_ = cap.Record(binlog.DirDown, f)
	if f.Type == wire.TypeBye {
		b, _ := wire.DecodeBye(f.Payload)
		t.Fatalf("refused: %+v", b)
	}
	wel, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return &recordedClient{conn: c, r: r, w: w, wel: wel, cap: cap}
}

// sendIMU writes one deterministic IMU sample and reads the pose echo,
// recording both directions.
func (rc *recordedClient) sendIMU(t *testing.T, i int) {
	t.Helper()
	s := sensors.IMUSample{T: float64(i+1) * 0.002,
		Gyro:  mathx.Vec3{X: 0.01 * float64(i%5), Y: -0.02, Z: 0.005},
		Accel: mathx.Vec3{X: 0.1, Y: 0.2 * float64(i%3), Z: 9.81}}
	f := wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, s)}
	if err := rc.w.WriteFrame(f); err != nil {
		t.Fatalf("imu %d: %v", i, err)
	}
	_ = rc.cap.Record(binlog.DirUp, f)
	pf, err := rc.r.ReadFrame()
	if err != nil || pf.Type != wire.TypePose {
		t.Fatalf("pose echo %d: %v err %v", i, pf.Type, err)
	}
	_ = rc.cap.Record(binlog.DirDown, pf)
}

func (rc *recordedClient) sendCamera(t *testing.T, i int) {
	t.Helper()
	cf := sensors.CameraFrame{Seq: i, T: float64(i+1) * 0.066,
		Features: []sensors.FeatureObs{{}, {}}}
	f := wire.Frame{Type: wire.TypeCamera, Payload: wire.AppendCamera(nil, cf)}
	if err := rc.w.WriteFrame(f); err != nil {
		t.Fatalf("camera %d: %v", i, err)
	}
	_ = rc.cap.Record(binlog.DirUp, f)
}

func (rc *recordedClient) sendQoE(t *testing.T, i int) {
	t.Helper()
	q := wire.QoE{Session: rc.wel.Session, MTP: telemetry.MTPSample{
		T: float64(i+1) * 0.0111, IMUAge: 0.8, Reproj: 1.5, Swap: 2.1}}
	f := wire.Frame{Type: wire.TypeQoE, Payload: wire.AppendQoE(nil, q)}
	if err := rc.w.WriteFrame(f); err != nil {
		t.Fatalf("qoe %d: %v", i, err)
	}
	_ = rc.cap.Record(binlog.DirUp, f)
}

// TestGoldenRecordReplay is the end-to-end regression gate: a seeded
// 2-session run through a live gateway fleet — including a resume
// after its replica is aborted — is captured client-side, replayed at 1× via
// replay.Compute, and the fingerprints must be bit-identical to the
// checked-in goldens. Regenerate with ILLIXR_UPDATE_GOLDEN=1 after an
// intentional wire/integrator change.
func TestGoldenRecordReplay(t *testing.T) {
	var gwBuf bytes.Buffer
	gwCap, err := binlog.NewWriter(&gwBuf, binlog.Meta{Label: "gateway"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gf := newGoldenFleet(t, 2, 8, 0, gwCap)

	var bufA, bufB bytes.Buffer
	capA, err := binlog.NewWriter(&bufA, binlog.Meta{App: "sponza", Seed: 42, IMURateHz: 500, CamRateHz: 15, Label: "client-a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	capB, err := binlog.NewWriter(&bufB, binlog.Meta{App: "materials", Seed: 43, IMURateHz: 500, CamRateHz: 15, Label: "client-b"}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// --- session A: plain run, no crash -------------------------------
	a := gf.connect(t, wire.Hello{App: "sponza", Seed: 42, IMURateHz: 500, CamRateHz: 15}, capA)
	if a.wel.PoseEpoch != 1 || a.wel.Resumed {
		t.Fatalf("fresh welcome A = %+v", a.wel)
	}
	for i := 0; i < 24; i++ {
		a.sendIMU(t, i)
		if i%8 == 7 {
			a.sendCamera(t, i/8)
			a.sendQoE(t, i/8)
		}
	}
	_ = a.conn.Close()

	// --- session B: crash the hosting replica mid-run, resume ---------
	b := gf.connect(t, wire.Hello{App: "materials", Seed: 43, IMURateHz: 500, CamRateHz: 15}, capB)
	for i := 0; i < 8; i++ {
		b.sendIMU(t, i)
	}
	hostB := -1
	for id := range gf.srvs {
		if gf.coord.Sessions(id) == 1 {
			hostB = id
		}
	}
	if hostB == -1 {
		t.Fatal("session B not placed")
	}
	gf.kill(hostB)
	for { // stream severs without a Bye
		if _, err := b.r.ReadFrame(); err != nil {
			break
		}
	}
	_ = b.conn.Close()

	b2 := gf.connect(t, wire.Hello{App: "materials", Seed: 43, IMURateHz: 500, CamRateHz: 15,
		ResumeToken: b.wel.ResumeToken, LastSeq: 8}, capB)
	if !b2.wel.Resumed || b2.wel.PoseEpoch != 2 {
		t.Fatalf("resume welcome B = %+v", b2.wel)
	}
	for i := 8; i < 16; i++ {
		b2.sendIMU(t, i)
	}
	b2.sendQoE(t, 0)
	b2.sendQoE(t, 1)
	_ = b2.conn.Close()

	if err := capA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := capB.Close(); err != nil {
		t.Fatal(err)
	}

	// --- 1× replay: fingerprints vs goldens ---------------------------
	checkGolden(t, "golden_session_a.json", bufA.Bytes())
	fpB := checkGolden(t, "golden_session_b.json", bufB.Bytes())
	if len(fpB.PoseEpochs) != 2 || fpB.PoseEpochs[0] != 1 || fpB.PoseEpochs[1] != 2 {
		t.Fatalf("session B pose-epoch lineage = %v, want [1 2]", fpB.PoseEpochs)
	}

	// --- the gateway-side tap captured the same run -------------------
	_ = gf.gw.Shutdown(context.Background())
	if err := gwCap.Close(); err != nil {
		t.Fatal(err)
	}
	gl, err := binlog.DecodeLog(gwBuf.Bytes(), nil)
	if err != nil {
		t.Fatalf("gateway capture: %v", err)
	}
	counts := gl.CountByType()
	if counts[wire.TypeHello] != 3 || counts[wire.TypeWelcome] != 3 {
		t.Fatalf("gateway saw %d hellos / %d welcomes, want 3/3 (A, B, B-resume)",
			counts[wire.TypeHello], counts[wire.TypeWelcome])
	}
	if counts[wire.TypeIMU] != 40 {
		t.Fatalf("gateway captured %d uplink IMU, want 40", counts[wire.TypeIMU])
	}
}

// checkGolden computes the 1× replay fingerprint of a capture and
// compares it bit-exactly against the checked-in golden.
func checkGolden(t *testing.T, name string, raw []byte) replay.Fingerprint {
	t.Helper()
	l, err := binlog.DecodeLog(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Torn != 0 {
		t.Fatalf("%s: torn records in clean capture", name)
	}
	fp, err := replay.Compute(l)
	if err != nil {
		t.Fatal(err)
	}
	// replay is virtual-time: computing twice is bit-identical
	fp2, err := replay.Compute(l)
	if err != nil || !fp.Equal(fp2) {
		t.Fatalf("%s: replay not deterministic: %s", name, fp.Diff(fp2))
	}
	path := filepath.Join(goldenDir, name)
	if os.Getenv("ILLIXR_UPDATE_GOLDEN") == "1" {
		out, _ := json.MarshalIndent(fp, "", "  ")
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return fp
	}
	gb, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with ILLIXR_UPDATE_GOLDEN=1): %v", err)
	}
	var want replay.Fingerprint
	if err := json.Unmarshal(gb, &want); err != nil {
		t.Fatal(err)
	}
	if !fp.Equal(want) {
		t.Fatalf("%s: FINGERPRINT DRIFT: %s", name, fp.Diff(want))
	}
	return fp
}

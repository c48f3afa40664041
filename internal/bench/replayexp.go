package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
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

// CaptureOverhead compares the frame write path with and without a
// binlog tap attached: the capture cost must stay inside the frame
// budget (ReplayReport.Check gates the alloc delta and the ns share
// of the 8.33 ms / 120 Hz frame).
type CaptureOverhead struct {
	Frames                 int     `json:"frames"`
	BaselineAllocsPerFrame float64 `json:"baseline_allocs_per_frame"`
	CaptureAllocsPerFrame  float64 `json:"capture_allocs_per_frame"`
	AllocDeltaPerFrame     float64 `json:"alloc_delta_per_frame"`
	BaselineNsPerFrame     float64 `json:"baseline_ns_per_frame"`
	CaptureNsPerFrame      float64 `json:"capture_ns_per_frame"`
	OverheadNsPerFrame     float64 `json:"overhead_ns_per_frame"`
	// FrameBudgetPct is the capture overhead as a percentage of the
	// 8.33 ms frame-path budget; Check fails the build at 3%.
	FrameBudgetPct float64 `json:"frame_budget_pct"`
}

// ReplayFidelity is the 1×-replay half of the report: decoding the
// same capture twice and re-driving it through the deterministic
// perception core must produce bit-identical fingerprints, the file
// round trip must keep its sidecar valid, and a torn tail must be
// recovered rather than fatal.
type ReplayFidelity struct {
	Records       uint64             `json:"records"`
	LogBytes      uint64             `json:"log_bytes"`
	BitExact      bool               `json:"bit_exact"`
	FileRoundTrip bool               `json:"file_round_trip"`
	TornRecovered bool               `json:"torn_recovered"`
	Fingerprint   replay.Fingerprint `json:"fingerprint"`
}

// ReplayRampStep is one N× fan-out step: the recording stamped onto
// Clients fresh identities and driven through the gateway into a live
// 2-replica fleet.
type ReplayRampStep struct {
	Clients  int     `json:"clients"`
	Admitted int     `json:"admitted"`
	Lost     uint64  `json:"lost"`
	Poses    uint64  `json:"poses"`
	WallSec  float64 `json:"wall_sec"`
	// QoEP99Ms is the p99 of the MTP totals the replicas received in
	// this step's replayed QoE stream — flat across the ramp when the
	// fan-out delivers the recorded stream intact.
	QoEP99Ms float64 `json:"qoe_p99_ms"`
}

// ReplayReport is the BENCH_replay.json document.
type ReplayReport struct {
	Note     string           `json:"note"`
	Capture  CaptureOverhead  `json:"capture"`
	Fidelity ReplayFidelity   `json:"fidelity"`
	Ramp     []ReplayRampStep `json:"ramp"`
}

const replayNote = "capture overhead is the binlog tap's cost on the " +
	"frame write path (amortized: the sidecar entry table grows by one " +
	"32-byte entry per record); fidelity replays one capture twice " +
	"through the deterministic perception core and requires bit-equal " +
	"fingerprints; the ramp fans one recording out as N fresh-identity " +
	"clients through the gateway into 2 live replicas. qoe_p99_ms is " +
	"computed from the replayed (recorded) QoE stream, so a flat value " +
	"across the ramp means the fan-out delivered the stream intact."

// Check is the record/replay gate: the capture tap must stay inside the
// frame-path budget, the 1× replay must be bit-exact, and the N×
// fan-out cell must admit at least 8 replayed sessions with zero lost
// frames.
func (rep *ReplayReport) Check() []error {
	var f failures
	// capture overhead: the frame path stays allocation-free in steady
	// state (amortized) and the tap costs < 3% of the 8.33 ms frame
	if rep.Capture.AllocDeltaPerFrame > 0.05 {
		f.addf("capture tap allocates %.3f/frame amortized, budget is 0.05",
			rep.Capture.AllocDeltaPerFrame)
	}
	if rep.Capture.FrameBudgetPct >= 3 {
		f.addf("capture tap costs %.2f%% of the 8.33 ms frame budget (%.0f ns/frame), limit 3%%",
			rep.Capture.FrameBudgetPct, rep.Capture.OverheadNsPerFrame)
	}

	// bit-exact replay
	if rep.Fidelity.Records == 0 {
		f.addf("fidelity ran on an empty recording")
	}
	if !rep.Fidelity.BitExact {
		f.addf("1x replay fingerprints are not bit-identical")
	}
	if !rep.Fidelity.FileRoundTrip {
		f.addf("binlog file + sidecar round trip failed")
	}
	if !rep.Fidelity.TornRecovered {
		f.addf("torn-tail recovery failed")
	}

	// the fan-out cell scales to >= 8 with zero loss
	if len(rep.Ramp) == 0 {
		f.addf("no fan-out ramp in report")
	}
	largest := 0
	for _, s := range rep.Ramp {
		if s.Clients > largest {
			largest = s.Clients
		}
		if s.Admitted != s.Clients {
			f.addf("ramp step %d admitted %d/%d clients", s.Clients, s.Admitted, s.Clients)
		}
		if s.Lost != 0 {
			f.addf("ramp step %d lost %d uplink frames, want 0", s.Clients, s.Lost)
		}
		if s.Clients > 0 && s.Poses == 0 {
			f.addf("ramp step %d saw no poses flow back", s.Clients)
		}
	}
	if largest < 8 {
		f.addf("largest fan-out step is %d clients, want >= 8", largest)
	}
	return f
}

// measureSteadyState warms the path, settles the heap, and returns the
// heap allocations per call over iters calls on the calling goroutine. The
// measurement runs at GOMAXPROCS=1: sync.Pool free-lists are per-P, so a
// goroutine migrating between Ps can miss the private slot it filled one
// call earlier — a scheduler artifact, not an allocation the path
// performs.
func measureSteadyState(iters int, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run() // warm pools, plan caches, and any lazily built scratch
	}
	runtime.GC()
	// A GC cycle detaches every sync.Pool's per-P local array; the first
	// use afterwards re-pins it (one-time allocations that would otherwise
	// be charged to the first measured call). In true steady state no GC
	// runs — that is the point — so re-warm once before measuring.
	for i := 0; i < 2; i++ {
		run()
	}
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for i := 0; i < iters; i++ {
		run()
	}
	runtime.ReadMemStats(&m2)
	return float64(m2.Mallocs-m1.Mallocs) / float64(iters)
}

// measureCaptureOverhead measures the pose frame write path into a
// discard sink, bare and with a binlog tap recording each frame.
func measureCaptureOverhead(frames int) (CaptureOverhead, error) {
	res := CaptureOverhead{Frames: frames}
	payload := wire.AppendPose(nil, wire.Pose{T: 1})
	frame := wire.Frame{Type: wire.TypePose, Payload: payload}

	base := wire.NewWriter(io.Discard)
	baseRun := func() {
		if err := base.WriteFrame(frame); err != nil {
			panic(err)
		}
	}
	res.BaselineAllocsPerFrame = measureSteadyState(frames, baseRun)
	start := time.Now()
	for i := 0; i < frames; i++ {
		baseRun()
	}
	res.BaselineNsPerFrame = float64(time.Since(start).Nanoseconds()) / float64(frames)

	tapped := wire.NewWriter(io.Discard)
	cap, err := binlog.NewWriter(io.Discard, binlog.Meta{Label: "bench"}, nil)
	if err != nil {
		return res, err
	}
	cap.Reserve(2 * frames * 3) // warmup + measured iterations, both runs
	capRun := func() {
		if err := tapped.WriteFrame(frame); err != nil {
			panic(err)
		}
		if err := cap.Record(binlog.DirDown, frame); err != nil {
			panic(err)
		}
	}
	res.CaptureAllocsPerFrame = measureSteadyState(frames, capRun)
	start = time.Now()
	for i := 0; i < frames; i++ {
		capRun()
	}
	res.CaptureNsPerFrame = float64(time.Since(start).Nanoseconds()) / float64(frames)
	if err := cap.Close(); err != nil {
		return res, err
	}

	res.AllocDeltaPerFrame = res.CaptureAllocsPerFrame - res.BaselineAllocsPerFrame
	res.OverheadNsPerFrame = res.CaptureNsPerFrame - res.BaselineNsPerFrame
	if res.OverheadNsPerFrame < 0 {
		res.OverheadNsPerFrame = 0
	}
	const frameBudgetNs = 8.33e6 // 120 Hz frame path
	res.FrameBudgetPct = res.OverheadNsPerFrame / frameBudgetNs * 100
	return res, nil
}

// benchRecording synthesizes the deterministic source capture the
// fidelity and ramp phases share: Hello, Welcome, a 500 Hz IMU stream
// with QoE every 10th sample, downlink poses.
func benchRecording(imuN int, seed int64) (*binlog.Log, []byte, error) {
	var buf bytes.Buffer
	w, err := binlog.NewWriter(&buf, binlog.Meta{Session: 1, App: "sponza",
		Seed: seed, IMURateHz: 500, CamRateHz: 15, CreatedUnixNano: 1, Label: "bench-src"}, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := func(dir binlog.Dir, wall float64, f wire.Frame) {
		if err == nil {
			err = w.RecordAt(dir, wall, f)
		}
	}
	rec(binlog.DirUp, 0, wire.Frame{Type: wire.TypeHello, Payload: wire.AppendHello(nil,
		wire.Hello{Proto: wire.Version, App: "sponza", Seed: seed, IMURateHz: 500, CamRateHz: 15})})
	rec(binlog.DirDown, 0.0005, wire.Frame{Type: wire.TypeWelcome, Payload: wire.AppendWelcome(nil,
		wire.Welcome{Proto: wire.Version, Session: 1, ResumeToken: 7, PoseEpoch: 1})})
	for i := 0; i < imuN; i++ {
		wall := 0.002 * float64(i+1)
		s := sensors.IMUSample{T: wall,
			Gyro:  mathx.Vec3{X: 0.02 * float64(i%7), Y: -0.01, Z: 0.004},
			Accel: mathx.Vec3{X: 0.05, Y: 0.1 * float64(i%3), Z: 9.81}}
		rec(binlog.DirUp, wall, wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil, s)})
		rec(binlog.DirDown, wall+0.0004, wire.Frame{Type: wire.TypePose,
			Payload: wire.AppendPose(nil, wire.Pose{T: wall})})
		if i%10 == 9 {
			rec(binlog.DirUp, wall+0.0002, wire.Frame{Type: wire.TypeQoE, Payload: wire.AppendQoE(nil,
				wire.QoE{Session: 1, MTP: telemetry.MTPSample{T: wall,
					IMUAge: 0.5 + 0.05*float64(i%9), Reproj: 1.2, Swap: 2.0}})})
		}
	}
	rec(binlog.DirUp, 0.002*float64(imuN+1), wire.Frame{Type: wire.TypeBye,
		Payload: wire.AppendBye(nil, wire.Bye{Reason: "bench done"})})
	if err != nil {
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	l, err := binlog.DecodeLog(buf.Bytes(), nil)
	return l, buf.Bytes(), err
}

// measureFidelity runs the 1× regression half: double decode+replay,
// file+sidecar round trip, torn-tail recovery.
func measureFidelity(l *binlog.Log, raw []byte) (ReplayFidelity, error) {
	res := ReplayFidelity{Records: uint64(len(l.Records)), LogBytes: uint64(len(raw))}
	fp1, err := replay.Compute(l)
	if err != nil {
		return res, err
	}
	l2, err := binlog.DecodeLog(raw, nil)
	if err != nil {
		return res, err
	}
	fp2, err := replay.Compute(l2)
	if err != nil {
		return res, err
	}
	res.BitExact = fp1.Equal(fp2)
	res.Fingerprint = fp1

	dir, err := os.MkdirTemp("", "illixr-replay-bench")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/bench" + binlog.Suffix
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return res, err
	}
	fl, ix, err := binlog.ReadFile(path, nil)
	if err != nil {
		return res, err
	}
	res.FileRoundTrip = uint64(len(fl.Records)) == res.Records &&
		ix.Validate(uint64(len(raw))) == nil
	if fp3, err := replay.Compute(fl); err != nil || !fp1.Equal(fp3) {
		res.FileRoundTrip = false
	}

	torn, err := binlog.DecodeLog(raw[:len(raw)-3], nil)
	res.TornRecovered = err == nil && torn.Torn == 1 &&
		uint64(len(torn.Records)) == res.Records-1
	return res, nil
}

// qoeCollector answers IMU with a latest-wins pose (the relay traffic
// generator) and collects the MTP totals of every QoE frame received.
type qoeCollector struct {
	mu     sync.Mutex
	totals []float64
}

func (q *qoeCollector) SessionStart(*session.Session) error { return nil }
func (q *qoeCollector) SessionEnd(*session.Session, error)  {}
func (q *qoeCollector) SessionFrame(s *session.Session, f wire.Frame) error {
	switch f.Type {
	case wire.TypeIMU:
		imu, err := wire.DecodeIMU(f.Payload)
		if err != nil {
			return err
		}
		return s.Send(wire.Frame{Type: wire.TypePose,
			Payload: wire.AppendPose(nil, wire.Pose{T: imu.T})}, session.LatestWins)
	case wire.TypeQoE:
		qo, err := wire.DecodeQoE(f.Payload)
		if err != nil {
			return err
		}
		q.mu.Lock()
		q.totals = append(q.totals, qo.MTP.Total())
		q.mu.Unlock()
	}
	return nil
}

func (q *qoeCollector) drain() []float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.totals
	q.totals = nil
	return out
}

// runRamp fans the recording out at each step size and reports the
// cell's behaviour.
func runRamp(l *binlog.Log, steps []int) ([]ReplayRampStep, error) {
	var out []ReplayRampStep
	for _, n := range steps {
		// the live cell the ramp drives: 2 replicas behind a gateway
		qoe := &qoeCollector{}
		f := pipeFleet(2,
			fleet.Config{ReplicaCapacity: n, TokenSeed: 1,
				RetryAfter: 50 * time.Millisecond, ResumeBurst: 64, ResumeWindowSec: 1},
			session.Config{IdleTimeout: -1}, qoe)
		start := time.Now()
		results := replay.FanOut(n, func(int) (net.Conn, error) { return f.dial(), nil },
			l, replay.Options{Timeout: 10 * time.Second})
		admitted, lost, poses, firstErr := replay.Tally(results)
		step := ReplayRampStep{Clients: n, Admitted: admitted, Lost: lost,
			Poses: poses, WallSec: time.Since(start).Seconds()}
		if totals := qoe.drain(); len(totals) > 0 {
			step.QoEP99Ms = mathx.Percentile(totals, 99)
		}
		f.stop(context.Background())
		if firstErr != nil {
			return out, fmt.Errorf("ramp step %d: %w", n, firstErr)
		}
		out = append(out, step)
	}
	return out, nil
}

// ReplayExperiment runs `illixr-bench -exp replay`: the binlog capture
// overhead on the frame path, the 1× bit-exact replay fidelity check,
// and the N× fan-out ramp through a live gateway cell.
func ReplayExperiment(w io.Writer, fanoutMax int, seed int64) (*ReplayReport, error) {
	rep := &ReplayReport{Note: replayNote}

	var err error
	rep.Capture, err = measureCaptureOverhead(20000)
	if err != nil {
		return nil, err
	}

	l, raw, err := benchRecording(500, seed)
	if err != nil {
		return nil, err
	}
	rep.Fidelity, err = measureFidelity(l, raw)
	if err != nil {
		return nil, err
	}

	var steps []int
	for n := 1; n < fanoutMax; n *= 2 {
		steps = append(steps, n)
	}
	steps = append(steps, fanoutMax)
	rep.Ramp, err = runRamp(l, steps)
	if err != nil {
		return nil, err
	}

	c := rep.Capture
	fmt.Fprintf(w, "capture tap: %.3f -> %.3f allocs/frame (delta %.3f), %.0f -> %.0f ns/frame (%.3f%% of the 8.33 ms frame budget)\n",
		c.BaselineAllocsPerFrame, c.CaptureAllocsPerFrame, c.AllocDeltaPerFrame,
		c.BaselineNsPerFrame, c.CaptureNsPerFrame, c.FrameBudgetPct)
	fd := rep.Fidelity
	fmt.Fprintf(w, "fidelity: %d records, bit-exact replay %v, file round trip %v, torn tail recovered %v, pose epochs %v\n",
		fd.Records, fd.BitExact, fd.FileRoundTrip, fd.TornRecovered, fd.Fingerprint.PoseEpochs)

	t := &telemetry.Table{
		Title:  "N× fan-out ramp (one recording, fresh identities, live 2-replica cell)",
		Header: []string{"clients", "admitted", "lost", "poses", "wall s", "QoE p99 ms"},
	}
	for _, s := range rep.Ramp {
		t.AddRow(fmt.Sprintf("%d", s.Clients), fmt.Sprintf("%d", s.Admitted),
			fmt.Sprintf("%d", s.Lost), fmt.Sprintf("%d", s.Poses),
			fmt.Sprintf("%.2f", s.WallSec), fmt.Sprintf("%.2f", s.QoEP99Ms))
	}
	t.Render(w)

	return rep, nil
}

package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/netsim"
	"illixr/internal/netxr/replay"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// The scale experiment (-exp scale) is the kilo-session data-plane cell
// of DESIGN.md §15: can one gateway-fronted fleet carry 1024 concurrent
// sessions without the control plane's locks or the relay's per-frame
// allocations showing up in motion-to-photon latency? Four parts:
//
//   - Sweep: a deterministic DES at 120 (the PR 6 baseline), 256, 512,
//     and 1024 sessions, each placed through the real
//     fleet.Coordinator across 16 virtual replicas. Server turnaround
//     grows with per-replica occupancy, so the sweep would expose a
//     placement hot spot as an MTP tail. Same seed, byte-identical
//     report.
//
//   - Fingerprint: one admission script (1024 admits, acks, terminal
//     ends, a replica kill with resumes, refusals of every flavor) and
//     the coordinator's decision fingerprint over it. The seed-42 value
//     is pinned as a golden in scaleexp_test.go: a coordinator change
//     that alters a decision moves it.
//
//   - Relay: the per-frame relay cost before (decode + re-encode +
//     binlog re-encode) and after (raw pass-through: ReadRaw, hop-span
//     rewrite, QueueRaw/Flush, RecordRaw), measured in steady state.
//
//   - Soak: 1024 real replay clients fanned out through a live gateway
//     into 8 session servers over in-process pipes. Scheduler-dependent
//     observations live in wall_* fields; admitted/lost are invariants.
//
// ScaleReport.Check gates: zero lost sessions everywhere, MTP p99 at
// 1024 sessions within 2x the 120-session baseline, the raw relay at
// or under 0.05 allocs/frame, and a fingerprint over >= 1024 decisions.
const (
	// scaleVirtualSec is the simulated duration of each sweep cell; the
	// IMU and vsync rates match the display clock so every vsync can
	// show a fresh pose.
	scaleVirtualSec = 4.0
	scaleIMUHz      = 120.0
	scaleVsyncHz    = 120.0
	// scaleReplicas x scaleCapacity must hold the largest cell
	// (16 x 96 = 1536 >= 1024).
	scaleReplicas = 16
	scaleCapacity = 96
	// scaleProcMs is the unloaded per-sample server turnaround; the
	// effective turnaround is scaleProcMs * (1 + sessionsOnReplica/capacity).
	scaleProcMs = 0.3
	// scaleBaselineSessions is the PR 6 fleet cell size the p99 ratio
	// gate compares against.
	scaleBaselineSessions = 120
	// scaleRelayIters sizes the relay before/after measurement.
	scaleRelayIters = 20000
	// scaleSoak* shape the live half.
	scaleSoakReplicas = 8
	scaleSoakIMU      = 30
)

const scaleNote = "kilo-session data-plane cell: the sweep is a seeded DES " +
	"(byte-identical across runs) with per-replica occupancy feeding the " +
	"server turnaround model; the fingerprint is the coordinator's fold of " +
	"every decision of one admission script; relay and soak are " +
	"live measurements whose wall_* fields vary run to run (DESIGN.md §15)."

// ScaleCell is one deterministic sweep point.
type ScaleCell struct {
	Sessions int `json:"sessions"`
	Admitted int `json:"admitted"`
	// Lost counts sessions that delivered zero poses (must be 0).
	Lost int `json:"lost"`
	// MaxReplicaLoad is the most loaded replica's occupancy — the
	// quantity the turnaround model feeds on.
	MaxReplicaLoad int `json:"max_replica_load"`
	// MTP pools every session's vsync samples into one distribution.
	MTP MTPStats `json:"mtp"`
}

// ScaleFingerprint is the admission script's outcome: how many decisions
// the coordinator committed and their fingerprint.
type ScaleFingerprint struct {
	Decisions   uint64 `json:"decisions"`
	Fingerprint string `json:"fingerprint"`
}

// ScaleRelayCost compares the decoded relay path with the raw
// pass-through on the same frame mix (wall_* measurement).
type ScaleRelayCost struct {
	Frames               int     `json:"frames"`
	WallBeforeNsPerFrame float64 `json:"wall_before_ns_per_frame"`
	WallAfterNsPerFrame  float64 `json:"wall_after_ns_per_frame"`
	BeforeAllocsPerFrame float64 `json:"before_allocs_per_frame"`
	AfterAllocsPerFrame  float64 `json:"after_allocs_per_frame"`
	WallSpeedup          float64 `json:"wall_speedup"`
}

// ScaleSoakResult is the live kilo-client half. admitted == sessions
// and lost == 0 are the invariants Check enforces.
type ScaleSoakResult struct {
	Sessions      int     `json:"sessions"`
	Replicas      int     `json:"replicas"`
	Admitted      int     `json:"admitted"`
	Lost          uint64  `json:"lost"`
	CleanShutdown bool    `json:"clean_shutdown"`
	WallPoses     uint64  `json:"wall_poses"`
	WallSec       float64 `json:"wall_sec"`
	// WallCoordContention / WallServerContention are the registry locks'
	// TryLock miss counters accumulated during the soak.
	WallCoordContention  uint64 `json:"wall_coord_contention"`
	WallServerContention uint64 `json:"wall_server_contention"`
}

// ScaleReport is the BENCH_scale.json document.
type ScaleReport struct {
	Seed             int64            `json:"seed"`
	Replicas         int              `json:"replicas"`
	ReplicaCapacity  int              `json:"replica_capacity"`
	VirtualSec       float64          `json:"virtual_sec"`
	IMUHz            float64          `json:"imu_hz"`
	VsyncHz          float64          `json:"vsync_hz"`
	BaselineSessions int              `json:"baseline_sessions"`
	Note             string           `json:"note"`
	Sweep            []ScaleCell      `json:"sweep"`
	Fingerprints     ScaleFingerprint `json:"fingerprints"`
	Relay            ScaleRelayCost   `json:"relay"`
	Soak             ScaleSoakResult  `json:"soak"`
}

// Check is the kilo-session gate: the data plane must carry 1024
// sessions without losing any, without letting MTP collapse, and
// without the relay allocating per frame.
func (rep *ScaleReport) Check() []error {
	var f failures
	// sweep shape
	var baseline, largest *ScaleCell
	for i := range rep.Sweep {
		c := &rep.Sweep[i]
		if c.Sessions == rep.BaselineSessions {
			baseline = c
		}
		if largest == nil || c.Sessions > largest.Sessions {
			largest = c
		}
		if c.Admitted != c.Sessions {
			f.addf("cell %d admitted %d of %d sessions", c.Sessions, c.Admitted, c.Sessions)
		}
		if c.Lost != 0 {
			f.addf("cell %d lost %d sessions", c.Sessions, c.Lost)
		}
		if c.MTP.N == 0 || c.MTP.P99Ms <= 0 {
			f.addf("cell %d has an empty MTP distribution", c.Sessions)
		}
	}
	switch {
	case baseline == nil:
		f.addf("sweep has no %d-session baseline cell", rep.BaselineSessions)
	case largest.Sessions < 1024:
		f.addf("sweep never reached 1024 sessions")
	case largest.MTP.P99Ms > 2*baseline.MTP.P99Ms:
		// the kilo-session promise: p99 within 2x the baseline
		f.addf("MTP p99 at %d sessions is %.2fms, over 2x the %d-session baseline %.2fms",
			largest.Sessions, largest.MTP.P99Ms, baseline.Sessions, baseline.MTP.P99Ms)
	}

	// zero-copy relay
	if rep.Relay.AfterAllocsPerFrame > 0.05 {
		f.addf("raw relay allocates %.3f per frame, over the 0.05 budget",
			rep.Relay.AfterAllocsPerFrame)
	}
	if rep.Relay.WallSpeedup < 1.05 {
		f.addf("raw relay speedup %.2fx, want >= 1.05x over the decoded path",
			rep.Relay.WallSpeedup)
	}

	// the admission script ran to completion (its value is pinned by
	// TestScaleFingerprintEqual)
	if rep.Fingerprints.Fingerprint == "" {
		f.addf("no decision fingerprint")
	}
	if rep.Fingerprints.Decisions < 1024 {
		f.addf("fingerprint script logged only %d decisions", rep.Fingerprints.Decisions)
	}

	// live soak
	if rep.Soak.Admitted != rep.Soak.Sessions {
		f.addf("soak admitted %d of %d clients", rep.Soak.Admitted, rep.Soak.Sessions)
	}
	if rep.Soak.Lost != 0 {
		f.addf("soak lost %d frames", rep.Soak.Lost)
	}
	if !rep.Soak.CleanShutdown {
		f.addf("soak shutdown was not clean")
	}
	if rep.Soak.WallPoses == 0 {
		f.addf("soak delivered no poses")
	}
	return f
}

// runScaleCell places n sessions through the real coordinator and runs
// each one's DES against its replica's occupancy.
func runScaleCell(n int, seed int64) (ScaleCell, error) {
	cell := ScaleCell{Sessions: n}
	coord := fleet.NewCoordinator(fleet.Config{ReplicaCapacity: scaleCapacity, TokenSeed: seed})
	for i := 0; i < scaleReplicas; i++ {
		coord.AddReplica(i, nil)
	}
	placedOn := make([]int, n)
	load := make([]int, scaleReplicas)
	for i := 0; i < n; i++ {
		hello := wire.Hello{App: "scale-bench", Seed: seed + int64(i), IMURateHz: scaleIMUHz}
		id, err := coord.Pick(0, hello)
		if err != nil {
			return cell, fmt.Errorf("bench: place session %d: %w", i, err)
		}
		if _, err := coord.AdmitOn(0, id, uint64(i+1), hello); err != nil {
			return cell, fmt.Errorf("bench: admit session %d: %w", i, err)
		}
		placedOn[i] = id
		load[id]++
	}
	cell.Admitted = n
	for _, l := range load {
		if l > cell.MaxReplicaLoad {
			cell.MaxReplicaLoad = l
		}
	}

	prof := netsim.DefaultProfile()
	var pooled []float64
	for i := 0; i < n; i++ {
		// turnaround grows linearly with the replica's occupancy
		occupancy := float64(load[placedOn[i]]) / float64(scaleCapacity)
		sim := simulateSession(sessionSpec{endSec: scaleVirtualSec,
			imuHz: scaleIMUHz, vsyncHz: scaleVsyncHz,
			turnaroundSec: scaleProcMs * (1 + occupancy) / 1000,
			up:            netsim.NewLink(prof, seed+int64(i)*2),
			down:          netsim.NewLink(prof, seed+int64(i)*2+1)})
		if sim.poses == 0 {
			cell.Lost++
		}
		pooled = append(pooled, sim.mtp...)
	}
	cell.MTP = mtpStats(pooled)
	return cell, nil
}

// runScaleAdmissionScript drives one canonical admission sequence —
// kilo-scale fresh admits, acks, terminal ends, a replica kill with the
// displaced population resuming, and refusals of every flavor — and
// returns the coordinator's decision fingerprint and decision count.
func runScaleAdmissionScript(seed int64) (uint64, uint64, error) {
	c := fleet.NewCoordinator(fleet.Config{
		ReplicaCapacity: scaleCapacity,
		ResumeBurst:     32,
		TokenSeed:       seed,
	})
	for i := 0; i < scaleReplicas; i++ {
		c.AddReplica(i, nil)
	}
	const n = 1024
	tokens := make([]uint64, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		hello := wire.Hello{App: "scale-script", Seed: seed + int64(i)}
		rid, err := c.Pick(now, hello)
		if err != nil {
			return 0, 0, fmt.Errorf("bench: script pick %d: %w", i, err)
		}
		w, err := c.AdmitOn(now, rid, uint64(i+1), hello)
		if err != nil {
			return 0, 0, fmt.Errorf("bench: script admit %d: %w", i, err)
		}
		tokens = append(tokens, w.ResumeToken)
		now += 0.001
	}
	for i, tok := range tokens {
		c.Ack(tok, uint64(100+i))
	}
	for i := 0; i < len(tokens); i += 2 {
		c.End(tokens[i])
	}
	displaced := c.KillReplica(3)
	for _, rec := range displaced {
		hello := wire.Hello{App: "scale-script", ResumeToken: rec.Token}
		rid, err := c.Pick(now, hello)
		if err != nil {
			continue // refusal is part of the script
		}
		_, _ = c.AdmitOn(now, rid, 2000+rec.Token, hello)
		now += 0.0005
	}
	// unknown-token and down-replica refusals round out the script
	_, _ = c.AdmitOn(now, 0, 7, wire.Hello{ResumeToken: 0xdeadbeef})
	_, _ = c.AdmitOn(now, 3, 8, wire.Hello{App: "scale-script"})
	return c.DecisionFingerprint(), c.Decisions(), nil
}

// ringReader serves the same encoded byte stream forever, so the relay
// measurement reads steady-state traffic without EOF handling.
type ringReader struct {
	data []byte
	off  int
}

func (l *ringReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// relayFrameMix is the traffic the relay measurement loops over: small
// IMU, mid-size pose, a 1 KiB video frame, and an untraced QoE — the
// shapes a real session's uplink and downlink interleave.
func relayFrameMix() []wire.Frame {
	big := make([]byte, 1024)
	for i := range big {
		big[i] = byte(i)
	}
	return []wire.Frame{
		{Type: wire.TypeIMU, Trace: telemetry.SpanRef{Trace: 1, Span: 2}, Payload: big[:24]},
		{Type: wire.TypePose, Trace: telemetry.SpanRef{Trace: 1, Span: 3}, Payload: big[:64]},
		{Type: wire.TypeFrame, Trace: telemetry.SpanRef{Trace: 1, Span: 4}, Payload: big},
		{Type: wire.TypeQoE, Payload: big[:32]},
	}
}

// measureRelayCost measures the old decoded relay hop (ReadFrame,
// binlog Record, trace rewrite, WriteFrame) against the raw
// pass-through (ReadRaw, RecordRaw, SetTrace, QueueRaw + windowed
// Flush) over the same frame mix.
func measureRelayCost(iters int) (ScaleRelayCost, error) {
	res := ScaleRelayCost{Frames: iters}
	var stream []byte
	for _, f := range relayFrameMix() {
		stream = wire.AppendFrame(stream, f)
	}
	ref := telemetry.SpanRef{Trace: 9, Span: 9}

	// Both sinks are a real file descriptor, not io.Discard: the decoded
	// path issues one write per frame where the coalescing window issues
	// one per wire.FlushWindow, and a zero-cost sink would hide exactly
	// that saving.
	sink, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return res, err
	}
	defer sink.Close()

	// before: every hop decodes the frame, re-records it, re-encodes it
	r1 := wire.NewReader(&ringReader{data: stream})
	w1 := wire.NewWriter(sink)
	tap1, err := binlog.NewWriter(io.Discard, binlog.Meta{Label: "scale-before"}, nil)
	if err != nil {
		return res, err
	}
	tap1.Reserve(4 * iters)
	var runErr error
	before := func() {
		f, err := r1.ReadFrame()
		if err != nil {
			runErr = err
			return
		}
		if err := tap1.Record(binlog.DirUp, f); err != nil {
			runErr = err
			return
		}
		if f.Trace.Valid() {
			f.Trace = ref
		}
		if err := w1.WriteFrame(f); err != nil {
			runErr = err
		}
	}
	res.BeforeAllocsPerFrame, _ = measureSteadyState(iters, before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		before()
	}
	res.WallBeforeNsPerFrame = float64(time.Since(start).Nanoseconds()) / float64(iters)
	if runErr != nil {
		return res, runErr
	}
	if err := tap1.Close(); err != nil {
		return res, err
	}

	// after: the zero-copy hop — bytes in, hop span rewritten in place,
	// bytes out through the coalescing window the gateway uses
	r2 := wire.NewReader(&ringReader{data: stream})
	w2 := wire.NewWriter(sink)
	tap2, err := binlog.NewWriter(io.Discard, binlog.Meta{Label: "scale-after"}, nil)
	if err != nil {
		return res, err
	}
	tap2.Reserve(4 * iters)
	after := func() {
		raw, err := r2.ReadRaw()
		if err != nil {
			runErr = err
			return
		}
		if err := tap2.RecordRaw(binlog.DirUp, raw); err != nil {
			runErr = err
			return
		}
		if raw.Trace.Valid() {
			raw.SetTrace(ref)
		}
		w2.QueueRaw(raw)
		if w2.Queued() >= wire.FlushWindow {
			if err := w2.Flush(); err != nil {
				runErr = err
			}
		}
	}
	res.AfterAllocsPerFrame, _ = measureSteadyState(iters, after)
	start = time.Now()
	for i := 0; i < iters; i++ {
		after()
	}
	res.WallAfterNsPerFrame = float64(time.Since(start).Nanoseconds()) / float64(iters)
	if err := w2.Flush(); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	if err := tap2.Close(); err != nil {
		return res, err
	}

	if res.WallAfterNsPerFrame > 0 {
		res.WallSpeedup = res.WallBeforeNsPerFrame / res.WallAfterNsPerFrame
	}
	return res, nil
}

// runScaleSoak fans nClients replayed sessions through a live gateway
// into scaleSoakReplicas session servers over in-process pipes.
func runScaleSoak(nClients int, seed int64) (ScaleSoakResult, error) {
	res := ScaleSoakResult{Sessions: nClients, Replicas: scaleSoakReplicas}
	l, _, err := benchRecording(scaleSoakIMU, seed)
	if err != nil {
		return res, err
	}

	// No capacity push-back in this cell: Pick is read-only, so a herd of
	// clients launched at once can all pick the same least-loaded replica
	// before one AdmitOn lands, and a refused replay client does not
	// redial. Every replica can hold the whole population, coordinator-
	// and server-side.
	f := pipeFleet(scaleSoakReplicas,
		fleet.Config{ReplicaCapacity: nClients,
			TokenSeed: seed, RetryAfter: 5 * time.Millisecond, ResumeBurst: 256, ResumeWindowSec: 1},
		session.Config{IdleTimeout: -1, MaxSessions: nClients}, &soakHandler{})

	start := time.Now()
	results := replay.FanOut(nClients, func(int) (net.Conn, error) { return f.dial(), nil },
		l, replay.Options{Timeout: 120 * time.Second})
	admitted, lost, poses, firstErr := replay.Tally(results)
	res.Admitted, res.Lost, res.WallPoses = admitted, lost, poses
	res.WallSec = time.Since(start).Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res.CleanShutdown = f.stop(ctx)
	for _, s := range f.srvs {
		res.WallServerContention += s.ShardContention()
	}
	res.WallCoordContention = f.gw.Coord.Contention()
	if firstErr != nil {
		return res, fmt.Errorf("bench: soak client: %w", firstErr)
	}
	return res, nil
}

// scaleSweepSizes builds the sweep: the 120-session baseline plus
// power-of-two steps up to maxSessions.
func scaleSweepSizes(maxSessions int) []int {
	sizes := []int{scaleBaselineSessions}
	for n := 256; n < maxSessions; n *= 2 {
		sizes = append(sizes, n)
	}
	if maxSessions > scaleBaselineSessions {
		sizes = append(sizes, maxSessions)
	}
	return sizes
}

// ScaleExperiment runs `illixr-bench -exp scale`.
func ScaleExperiment(w io.Writer, maxSessions int, seed int64) (*ScaleReport, error) {
	if maxSessions > scaleReplicas*scaleCapacity {
		return nil, fmt.Errorf("bench: %d sessions exceed fleet capacity %d",
			maxSessions, scaleReplicas*scaleCapacity)
	}
	rep := &ScaleReport{
		Seed: seed, Replicas: scaleReplicas, ReplicaCapacity: scaleCapacity,
		VirtualSec: scaleVirtualSec, IMUHz: scaleIMUHz, VsyncHz: scaleVsyncHz,
		BaselineSessions: scaleBaselineSessions, Note: scaleNote,
	}

	fmt.Fprintf(w, "Kilo-session scale sweep: %v sessions, %d replicas x %d, seed %d\n",
		scaleSweepSizes(maxSessions), scaleReplicas, scaleCapacity, seed)
	for _, n := range scaleSweepSizes(maxSessions) {
		cell, err := runScaleCell(n, seed)
		if err != nil {
			return nil, err
		}
		rep.Sweep = append(rep.Sweep, cell)
		fmt.Fprintf(w, "  %4d sessions: mtp mean %.2f  p99 %.2f  max %.2f ms over %d vsyncs (max replica load %d, lost %d)\n",
			n, cell.MTP.MeanMs, cell.MTP.P99Ms, cell.MTP.MaxMs, cell.MTP.N,
			cell.MaxReplicaLoad, cell.Lost)
	}

	fp, decisions, err := runScaleAdmissionScript(seed)
	if err != nil {
		return nil, err
	}
	rep.Fingerprints = ScaleFingerprint{Decisions: decisions, Fingerprint: fmt.Sprintf("%#x", fp)}
	fmt.Fprintf(w, "  decision fingerprint over %d decisions: %s\n",
		rep.Fingerprints.Decisions, rep.Fingerprints.Fingerprint)

	if rep.Relay, err = measureRelayCost(scaleRelayIters); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  relay hop: %.0f -> %.0f ns/frame (%.2fx), %.3f -> %.3f allocs/frame\n",
		rep.Relay.WallBeforeNsPerFrame, rep.Relay.WallAfterNsPerFrame, rep.Relay.WallSpeedup,
		rep.Relay.BeforeAllocsPerFrame, rep.Relay.AfterAllocsPerFrame)

	fmt.Fprintf(w, "\nlive gateway soak: %d replayed clients through %d replicas\n",
		maxSessions, scaleSoakReplicas)
	if rep.Soak, err = runScaleSoak(maxSessions, seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  admitted %d  lost %d  poses %d  clean shutdown %v (%.1f s wall, coord misses %d, server misses %d)\n",
		rep.Soak.Admitted, rep.Soak.Lost, rep.Soak.WallPoses, rep.Soak.CleanShutdown,
		rep.Soak.WallSec, rep.Soak.WallCoordContention, rep.Soak.WallServerContention)

	return rep, nil
}

package bench

import (
	"errors"
	"fmt"
	"io"

	"illixr/internal/faults"
	"illixr/internal/netxr/bridge"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/netsim"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
)

// The fleet experiment (-exp fleet) is the survivability chaos cell of
// DESIGN.md §11: N sessions placed across three virtual replicas by the
// real fleet.Coordinator, one replica killed mid-run by the
// replica-crash fault scenario, every displaced session reconnecting
// through the coordinator's admission control (resume-burst limiter and
// Retry-After push-back included) under the production backoff policy.
// It is a discrete-event simulation in virtual time: the crash instant
// comes from the seeded fault schedule, reconnect attempts are processed
// fleet-wide in timestamp order, and every message crosses the real
// codec and the seeded netsim delay process. Same seed, byte-identical
// report. Live clients racing their resumes onto the survivors of a
// killed replica are fleet.TestGatewayCrashResumeHerd.
//
// The survivability contract FleetReport.Check enforces: zero lost
// sessions, every displaced session resumed, recovery p99 within
// RecoveryBoundMs.
const (
	// fleetVirtualSec is the simulated duration of the chaos cell.
	fleetVirtualSec = 10.0
	// fleetIMUHz and fleetVsyncHz fix stream and display rates. IMU runs
	// at half the network cell's rate to keep the 100+-session cell fast.
	fleetIMUHz   = 250.0
	fleetVsyncHz = 120.0
	// fleetReplicas and fleetCapacity shape the fleet: capacity is sized
	// so the survivors can absorb the dead replica's whole population
	// (2 x 64 >= the default 120 sessions).
	fleetReplicas = 3
	fleetCapacity = 64
	// fleetServerProcMs is the per-sample server turnaround.
	fleetServerProcMs = 0.3
	// fleetDetectSec is the client-side failure-detection delay beyond
	// one-way propagation (a missed-heartbeat allowance).
	fleetDetectSec = 0.010
	// fleetRecoveryBoundMs is the survivability bound Check asserts
	// on recovery p99: detection + a resume storm spread over the burst
	// windows + the backoff schedule all must land inside it.
	fleetRecoveryBoundMs = 1500.0
)

// FleetSessionResult is one simulated session's row.
type FleetSessionResult struct {
	Session   int  `json:"session"`
	Replica   int  `json:"replica"`
	Displaced bool `json:"displaced"`
	// ResumedOn is the replica the session landed on after the crash
	// (-1 when not displaced).
	ResumedOn int `json:"resumed_on"`
	// ResumeAttempts counts reconnect dials, including refused ones.
	ResumeAttempts int `json:"resume_attempts"`
	// RecoveryMs is crash-to-first-fresh-pose-displayed (0 if not
	// displaced).
	RecoveryMs     float64  `json:"recovery_ms"`
	IMUSent        int      `json:"imu_sent"`
	PosesDelivered int      `json:"poses_delivered"`
	MTP            MTPStats `json:"mtp"`
}

// FleetReport is the BENCH_fleet.json document.
type FleetReport struct {
	Seed            int64   `json:"seed"`
	Sessions        int     `json:"sessions"`
	Replicas        int     `json:"replicas"`
	ReplicaCapacity int     `json:"replica_capacity"`
	VirtualSec      float64 `json:"virtual_sec"`
	IMUHz           float64 `json:"imu_hz"`
	VsyncHz         float64 `json:"vsync_hz"`
	Scenario        string  `json:"scenario"`
	// ScheduleFingerprint pins the fault schedule (faults.Fingerprint).
	ScheduleFingerprint string  `json:"schedule_fingerprint"`
	CrashedReplica      int     `json:"crashed_replica"`
	CrashTimeSec        float64 `json:"crash_time_sec"`
	Displaced           int     `json:"displaced"`
	Resumed             int     `json:"resumed"`
	Lost                int     `json:"lost"`
	AdmissionRefusals   int     `json:"admission_refusals"`
	ResumeAttempts      int     `json:"resume_attempts"`
	RecoveryBoundMs     float64 `json:"recovery_bound_ms"`
	// Recovery is the crash-to-recovered distribution over displaced
	// sessions; MTP aggregates all sessions' vsync samples (mean of
	// per-session means, worst p99/max).
	Recovery MTPStats             `json:"recovery"`
	MTP      MTPStats             `json:"aggregate_mtp"`
	Note     string               `json:"note"`
	Per      []FleetSessionResult `json:"sessions_detail"`
}

const fleetNote = "deterministic replica-crash chaos cell: sessions placed by " +
	"the real fleet coordinator, one replica killed at the seeded fault " +
	"schedule's instant, displaced sessions resume through admission " +
	"control (burst limiter + Retry-After) under the production backoff " +
	"policy, all in virtual time; recovery is crash-to-first-fresh-pose. " +
	"(DESIGN.md §11)."

// Check is the survivability gate: the replica-crash chaos cell must
// lose zero sessions and recover every displaced one inside the bound.
func (rep *FleetReport) Check() []error {
	var f failures
	// cell shape
	if rep.Sessions < 100 {
		f.addf("cell ran %d sessions, need >= 100", rep.Sessions)
	}
	if rep.Replicas < 3 {
		f.addf("cell ran %d replicas, need >= 3", rep.Replicas)
	}
	if rep.Displaced == 0 {
		f.addf("crash displaced no sessions — the chaos cell is inert")
	}
	if rep.CrashTimeSec < 0.3*rep.VirtualSec || rep.CrashTimeSec > 0.7*rep.VirtualSec {
		f.addf("crash at %.3fs outside the middle window of a %.0fs run",
			rep.CrashTimeSec, rep.VirtualSec)
	}

	// survivability
	if rep.Lost != 0 {
		f.addf("lost %d sessions", rep.Lost)
	}
	if rep.Resumed != rep.Displaced {
		f.addf("resumed %d of %d displaced sessions", rep.Resumed, rep.Displaced)
	}

	// bounded recovery
	if rep.Recovery.N != rep.Displaced {
		f.addf("recovery distribution has %d samples for %d displaced", rep.Recovery.N, rep.Displaced)
	}
	if rep.Recovery.P99Ms <= 0 || rep.Recovery.P99Ms > rep.RecoveryBoundMs {
		f.addf("recovery p99 %.1fms outside (0, %.0fms]", rep.Recovery.P99Ms, rep.RecoveryBoundMs)
	}
	if rep.Recovery.MaxMs > rep.RecoveryBoundMs {
		f.addf("recovery max %.1fms exceeds bound %.0fms", rep.Recovery.MaxMs, rep.RecoveryBoundMs)
	}
	for _, s := range rep.Per {
		if !s.Displaced {
			continue
		}
		if s.RecoveryMs <= 0 {
			f.addf("session %d displaced but recovery %.1fms", s.Session, s.RecoveryMs)
		}
		if s.ResumedOn == rep.CrashedReplica || s.ResumedOn < 0 {
			f.addf("session %d resumed on replica %d", s.Session, s.ResumedOn)
		}
		if s.PosesDelivered == 0 {
			f.addf("session %d delivered no poses", s.Session)
		}
	}

	// admission did real work: without a push-back the burst limiter is
	// inert and the cell proves nothing about admission control
	if rep.AdmissionRefusals == 0 {
		f.addf("resume storm saw zero admission refusals — burst limiter untested")
	}
	return f
}

// fleetResume is the outcome of the global resume storm for one
// displaced session.
type fleetResume struct {
	resumeT  float64 // virtual time the resume handshake completes
	attempts int
	landedOn int
}

// runResumeStorm replays every displaced session's reconnect schedule
// fleet-wide in timestamp order (the burst limiter is global state, so
// per-session replay would be wrong). Returns per-session outcomes and
// the total refusal count.
func runResumeStorm(coord *fleet.Coordinator, displaced []fleet.Record,
	sessionOf map[uint64]int, crashT, rttSec float64, seed int64) (map[int]fleetResume, int, int) {

	type attempt struct {
		t   float64
		idx int // session index, tie-break
		n   int // 0-based attempt number
		rec fleet.Record
		bo  *bridge.Backoff
	}
	var pending []attempt
	for _, rec := range displaced {
		idx := sessionOf[rec.Token]
		pending = append(pending, attempt{
			t:   crashT + rttSec/2 + fleetDetectSec,
			idx: idx,
			rec: rec,
			bo:  bridge.NewBackoff(seed + int64(idx)*7919),
		})
	}
	out := map[int]fleetResume{}
	refusals, totalAttempts := 0, 0
	for len(pending) > 0 {
		// pop the earliest attempt (ties by session index): fleet order
		best := 0
		for i := 1; i < len(pending); i++ {
			if pending[i].t < pending[best].t ||
				(pending[i].t == pending[best].t && pending[i].idx < pending[best].idx) {
				best = i
			}
		}
		a := pending[best]
		pending = append(pending[:best], pending[best+1:]...)

		totalAttempts++
		hello := a.rec.Hello
		hello.ResumeToken = a.rec.Token
		// the admission decision lands one-way propagation after the dial
		now := a.t + rttSec/2
		var admitErr error
		replica, admitErr := coord.Pick(now, hello)
		if admitErr == nil {
			_, admitErr = coord.AdmitOn(now, replica, uint64(1000+a.idx), hello)
		}
		if admitErr == nil {
			out[a.idx] = fleetResume{resumeT: a.t + rttSec, attempts: a.n + 1, landedOn: replica}
			continue
		}
		refusals++
		var ae *session.AdmissionError
		delay := a.bo.Delay(a.n)
		if errors.As(admitErr, &ae) && ae.RetryAfter > delay {
			delay = ae.RetryAfter
		}
		a.t = now + rttSec/2 + delay.Seconds() // refusal Bye reaches the client, then wait
		a.n++
		pending = append(pending, a)
	}
	return out, refusals, totalAttempts
}

// FleetExperiment runs the chaos cell and prints the summary.
func FleetExperiment(w io.Writer, nSessions int, seed int64) (*FleetReport, error) {
	if nSessions > fleetCapacity*(fleetReplicas-1) {
		// the survivors must be able to absorb everyone, or zero-loss is
		// arithmetically impossible — refuse rather than report a rigged cell
		return nil, fmt.Errorf("bench: %d sessions exceed survivor capacity %d",
			nSessions, fleetCapacity*(fleetReplicas-1))
	}

	// the crash instant comes from the seeded fault schedule
	fc, err := faults.Scenario("replica-crash", seed, fleetVirtualSec)
	if err != nil {
		return nil, err
	}
	sched := faults.Generate(fc)
	crashes := sched.ByKind(faults.ReplicaCrash)
	if len(crashes) != 1 {
		return nil, fmt.Errorf("bench: replica-crash scenario yielded %d windows", len(crashes))
	}
	crashT := crashes[0].Start
	crashed := 0
	if _, err := fmt.Sscanf(crashes[0].Component, "replica-%d", &crashed); err != nil {
		return nil, fmt.Errorf("bench: bad crash component %q", crashes[0].Component)
	}

	rep := &FleetReport{
		Seed: seed, Sessions: nSessions, Replicas: fleetReplicas,
		ReplicaCapacity: fleetCapacity, VirtualSec: fleetVirtualSec,
		IMUHz: fleetIMUHz, VsyncHz: fleetVsyncHz,
		Scenario:            "replica-crash",
		ScheduleFingerprint: fmt.Sprintf("%#x", sched.Fingerprint()),
		CrashedReplica:      crashed, CrashTimeSec: crashT,
		RecoveryBoundMs: fleetRecoveryBoundMs, Note: fleetNote,
	}

	// place the fleet through the real coordinator
	coord := fleet.NewCoordinator(fleet.Config{ReplicaCapacity: fleetCapacity, TokenSeed: seed})
	for i := 0; i < fleetReplicas; i++ {
		coord.AddReplica(i, nil)
	}
	prof := netsim.DefaultProfile()
	rttSec := prof.RTTMs() / 1000
	placedOn := make([]int, nSessions)
	sessionOf := map[uint64]int{} // resume token -> session index
	for i := 0; i < nSessions; i++ {
		hello := wire.Hello{App: "fleet-bench", Seed: seed + int64(i), IMURateHz: fleetIMUHz}
		id, err := coord.Pick(0, hello)
		if err != nil {
			return nil, fmt.Errorf("bench: place session %d: %w", i, err)
		}
		wel, err := coord.AdmitOn(0, id, uint64(i+1), hello)
		if err != nil {
			return nil, fmt.Errorf("bench: admit session %d: %w", i, err)
		}
		placedOn[i] = id
		sessionOf[wel.ResumeToken] = i
	}

	// crash, then replay the resume storm fleet-wide in time order
	displaced := coord.KillReplica(crashed)
	resumes, refusals, attempts := runResumeStorm(coord, displaced, sessionOf, crashT, rttSec, seed)
	rep.Displaced = len(displaced)
	rep.Resumed = len(resumes)
	rep.Lost = len(displaced) - len(resumes)
	rep.AdmissionRefusals = refusals
	rep.ResumeAttempts = attempts

	// per-session DES
	var recoveries, mtpMeans []float64
	agg := MTPStats{}
	for i := 0; i < nSessions; i++ {
		// a displaced session goes dark from the crash until its resume
		// handshake completes, then streams to its new replica over a
		// fresh link pair
		spec := sessionSpec{endSec: fleetVirtualSec, imuHz: fleetIMUHz, vsyncHz: fleetVsyncHz,
			turnaroundSec: fleetServerProcMs / 1000,
			up:            netsim.NewLink(prof, seed+int64(i)*2),
			down:          netsim.NewLink(prof, seed+int64(i)*2+1)}
		res, resumed := resumes[i]
		if resumed {
			spec.outage = &sessionOutage{startSec: crashT, endSec: res.resumeT,
				up:   netsim.NewLink(prof, seed+int64(i)*2+500_000),
				down: netsim.NewLink(prof, seed+int64(i)*2+500_001)}
		}
		sim := simulateSession(spec)
		sres := FleetSessionResult{Session: i, Replica: placedOn[i], ResumedOn: -1,
			IMUSent: sim.imuSent, PosesDelivered: sim.poses, MTP: mtpStats(sim.mtp)}
		if resumed {
			sres.Displaced = true
			sres.ResumedOn = res.landedOn
			sres.ResumeAttempts = res.attempts
			if sim.firstResumeArrival >= 0 {
				sres.RecoveryMs = (sim.firstResumeArrival - crashT) * 1000
			}
		}
		rep.Per = append(rep.Per, sres)
		if sres.Displaced {
			recoveries = append(recoveries, sres.RecoveryMs)
		}
		mtpMeans = append(mtpMeans, sres.MTP.MeanMs)
		agg.N += sres.MTP.N
		if sres.MTP.P99Ms > agg.P99Ms {
			agg.P99Ms = sres.MTP.P99Ms
		}
		if sres.MTP.MaxMs > agg.MaxMs {
			agg.MaxMs = sres.MTP.MaxMs
		}
	}
	rep.Recovery = mtpStats(recoveries)
	meanStats := mtpStats(mtpMeans)
	agg.MeanMs, agg.P50Ms = meanStats.MeanMs, meanStats.P50Ms
	rep.MTP = agg

	fmt.Fprintf(w, "Fleet survivability experiment: %d sessions, %d replicas, seed %d\n",
		nSessions, fleetReplicas, seed)
	fmt.Fprintf(w, "  replica %d crashes at t=%.3fs (schedule %s)\n",
		crashed, crashT, rep.ScheduleFingerprint)
	fmt.Fprintf(w, "  displaced %d  resumed %d  lost %d  refusals %d  attempts %d\n",
		rep.Displaced, rep.Resumed, rep.Lost, rep.AdmissionRefusals, rep.ResumeAttempts)
	fmt.Fprintf(w, "  recovery ms: mean %.1f  p50 %.1f  p99 %.1f  max %.1f (bound %.0f)\n",
		rep.Recovery.MeanMs, rep.Recovery.P50Ms, rep.Recovery.P99Ms, rep.Recovery.MaxMs,
		rep.RecoveryBoundMs)
	fmt.Fprintf(w, "  mtp ms: mean %.2f  p99 %.2f  max %.2f over %d vsyncs\n",
		rep.MTP.MeanMs, rep.MTP.P99Ms, rep.MTP.MaxMs, rep.MTP.N)

	return rep, nil
}

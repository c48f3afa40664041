package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/replay"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
)

// The scale experiment (-exp scale) is the kilo-session data-plane cell
// of DESIGN.md §15: can one gateway-fronted fleet admit and carry 1024
// concurrent sessions? Two parts:
//
//   - Fingerprint: one admission script (1024 admits, acks, terminal
//     ends, a replica kill with resumes, refusals of every flavor) and
//     the coordinator's decision fingerprint over it. The seed-42 value
//     is pinned as a golden in scaleexp_test.go: a coordinator change
//     that alters a decision moves it.
//
//   - Soak: 1024 real replay clients fanned out through a live gateway
//     into 8 session servers over in-process pipes. Scheduler-dependent
//     observations live in wall_* fields; admitted/lost are invariants.
//
// ScaleReport.Check gates: a fingerprint over >= 1024 decisions, and a
// soak that admits every client, loses no frame and shuts down clean.
// The raw relay hop's cost is benchmark/'s wire.relay_raw_ns and
// wire.allocs_per_frame rows, and TestZeroAllocRelayLoop holds it at 0.
const (
	// scaleReplicas x scaleCapacity must hold the admission script's
	// population (16 x 96 = 1536 >= 1024).
	scaleReplicas = 16
	scaleCapacity = 96
	// scaleSoak* shape the live half.
	scaleSoakReplicas = 8
	scaleSoakIMU      = 30
)

const scaleNote = "kilo-session data-plane cell: the fingerprint is the " +
	"coordinator's fold of every decision of one admission script; the " +
	"soak is a live measurement whose wall_* fields vary run to run " +
	"(DESIGN.md §15)."

// ScaleFingerprint is the admission script's outcome: how many decisions
// the coordinator committed and their fingerprint.
type ScaleFingerprint struct {
	Decisions   uint64 `json:"decisions"`
	Fingerprint string `json:"fingerprint"`
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
	Seed            int64            `json:"seed"`
	Replicas        int              `json:"replicas"`
	ReplicaCapacity int              `json:"replica_capacity"`
	Note            string           `json:"note"`
	Fingerprints    ScaleFingerprint `json:"fingerprints"`
	Soak            ScaleSoakResult  `json:"soak"`
}

// Check is the kilo-session gate: the admission script must run to
// completion and the live fleet must carry 1024 sessions without losing
// any.
func (rep *ScaleReport) Check() []error {
	var f failures
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
		session.Config{IdleTimeout: -1, MaxSessions: nClients}, soakHandler{})

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

// ScaleExperiment runs `illixr-bench -exp scale`.
func ScaleExperiment(w io.Writer, sessions int, seed int64) (*ScaleReport, error) {
	rep := &ScaleReport{Seed: seed, Replicas: scaleReplicas, ReplicaCapacity: scaleCapacity, Note: scaleNote}

	fmt.Fprintf(w, "Kilo-session admission script: %d replicas x %d, seed %d\n",
		scaleReplicas, scaleCapacity, seed)
	fp, decisions, err := runScaleAdmissionScript(seed)
	if err != nil {
		return nil, err
	}
	rep.Fingerprints = ScaleFingerprint{Decisions: decisions, Fingerprint: fmt.Sprintf("%#x", fp)}
	fmt.Fprintf(w, "  decision fingerprint over %d decisions: %s\n",
		rep.Fingerprints.Decisions, rep.Fingerprints.Fingerprint)

	fmt.Fprintf(w, "\nlive gateway soak: %d replayed clients through %d replicas\n",
		sessions, scaleSoakReplicas)
	if rep.Soak, err = runScaleSoak(sessions, seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  admitted %d  lost %d  poses %d  clean shutdown %v (%.1f s wall, coord misses %d, server misses %d)\n",
		rep.Soak.Admitted, rep.Soak.Lost, rep.Soak.WallPoses, rep.Soak.CleanShutdown,
		rep.Soak.WallSec, rep.Soak.WallCoordContention, rep.Soak.WallServerContention)

	return rep, nil
}

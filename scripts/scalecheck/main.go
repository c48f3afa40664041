// Command scalecheck validates a BENCH_scale.json produced by
// `illixr-bench -exp scale`: the kilo-session data plane must carry
// 1024 sessions without losing any, without letting MTP collapse, and
// without the relay allocating per frame.
//
// Usage: scalecheck BENCH_scale.json
//
// Checks:
//  1. Sweep shape: the 120-session baseline and a >= 1024-session cell
//     are both present; every cell admitted its whole population and
//     lost none.
//  2. Scaling: MTP p99 at the largest cell within 2x the 120-session
//     baseline (the kilo-session promise).
//  3. Zero-copy relay: <= 0.05 allocs per relayed frame and the raw
//     pass-through no slower than the decoded path (>= 1.05x).
//  4. Admission script: a decision fingerprint is present and covers
//     >= 1024 decisions (its value is pinned by the bench tests).
//  5. Live soak: every one of the fanned-out clients admitted, zero
//     lost frames, clean shutdown.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type mtp struct {
	MeanMs float64 `json:"mean_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	N      int     `json:"n"`
}

type cell struct {
	Sessions int `json:"sessions"`
	Admitted int `json:"admitted"`
	Lost     int `json:"lost"`
	MTP      mtp `json:"mtp"`
}

type report struct {
	BaselineSessions int    `json:"baseline_sessions"`
	Sweep            []cell `json:"sweep"`
	Fingerprints     struct {
		Decisions   uint64 `json:"decisions"`
		Fingerprint string `json:"fingerprint"`
	} `json:"fingerprints"`
	Relay struct {
		AfterAllocsPerFrame float64 `json:"after_allocs_per_frame"`
		WallSpeedup         float64 `json:"wall_speedup"`
	} `json:"relay"`
	Soak struct {
		Sessions      int    `json:"sessions"`
		Admitted      int    `json:"admitted"`
		Lost          uint64 `json:"lost"`
		CleanShutdown bool   `json:"clean_shutdown"`
		WallPoses     uint64 `json:"wall_poses"`
	} `json:"soak"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: scalecheck BENCH_scale.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "scalecheck: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scalecheck: "+format+"\n", args...)
	}
	bad := false

	// 1. sweep shape
	var baseline, largest *cell
	for i := range rep.Sweep {
		c := &rep.Sweep[i]
		if c.Sessions == rep.BaselineSessions {
			baseline = c
		}
		if largest == nil || c.Sessions > largest.Sessions {
			largest = c
		}
		if c.Admitted != c.Sessions {
			fail("cell %d admitted %d of %d sessions", c.Sessions, c.Admitted, c.Sessions)
			bad = true
		}
		if c.Lost != 0 {
			fail("cell %d lost %d sessions", c.Sessions, c.Lost)
			bad = true
		}
		if c.MTP.N == 0 || c.MTP.P99Ms <= 0 {
			fail("cell %d has an empty MTP distribution", c.Sessions)
			bad = true
		}
	}
	if baseline == nil {
		fail("sweep has no %d-session baseline cell", rep.BaselineSessions)
		os.Exit(1)
	}
	if largest == nil || largest.Sessions < 1024 {
		fail("sweep never reached 1024 sessions")
		os.Exit(1)
	}

	// 2. the kilo-session promise: p99 within 2x the baseline
	if largest.MTP.P99Ms > 2*baseline.MTP.P99Ms {
		fail("MTP p99 at %d sessions is %.2fms, over 2x the %d-session baseline %.2fms",
			largest.Sessions, largest.MTP.P99Ms, baseline.Sessions, baseline.MTP.P99Ms)
		bad = true
	}

	// 3. zero-copy relay
	if rep.Relay.AfterAllocsPerFrame > 0.05 {
		fail("raw relay allocates %.3f per frame, over the 0.05 budget",
			rep.Relay.AfterAllocsPerFrame)
		bad = true
	}
	if rep.Relay.WallSpeedup < 1.05 {
		fail("raw relay speedup %.2fx, want >= 1.05x over the decoded path",
			rep.Relay.WallSpeedup)
		bad = true
	}

	// 4. the admission script ran to completion
	if rep.Fingerprints.Fingerprint == "" {
		fail("no decision fingerprint")
		bad = true
	}
	if rep.Fingerprints.Decisions < 1024 {
		fail("fingerprint script logged only %d decisions", rep.Fingerprints.Decisions)
		bad = true
	}

	// 5. live soak
	if rep.Soak.Admitted != rep.Soak.Sessions {
		fail("soak admitted %d of %d clients", rep.Soak.Admitted, rep.Soak.Sessions)
		bad = true
	}
	if rep.Soak.Lost != 0 {
		fail("soak lost %d frames", rep.Soak.Lost)
		bad = true
	}
	if !rep.Soak.CleanShutdown {
		fail("soak shutdown was not clean")
		bad = true
	}
	if rep.Soak.WallPoses == 0 {
		fail("soak delivered no poses")
		bad = true
	}

	if bad {
		os.Exit(1)
	}
	fmt.Printf("scalecheck: OK (%d sessions p99 %.2fms <= 2x %d-session %.2fms, relay %.3f allocs/frame at %.2fx, fingerprint %s over %d decisions, soak %d/%d admitted 0 lost)\n",
		largest.Sessions, largest.MTP.P99Ms, baseline.Sessions, baseline.MTP.P99Ms,
		rep.Relay.AfterAllocsPerFrame, rep.Relay.WallSpeedup,
		rep.Fingerprints.Fingerprint, rep.Fingerprints.Decisions,
		rep.Soak.Admitted, rep.Soak.Sessions)
}

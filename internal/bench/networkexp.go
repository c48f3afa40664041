package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"illixr/internal/faults"
	"illixr/internal/netxr/netsim"
)

// The network experiment (-exp network) answers the edge-offload
// question of DESIGN.md §9: how does motion-to-photon latency degrade
// with round-trip time when the IMU integrator runs on a server? It is a
// deterministic discrete-event sweep in virtual session time: for each
// link profile (loopback → regional, plus a wifi cell overlaid with the
// flaky-link fault scenario's outage windows), N sessions push IMU
// samples through real wire encode/decode and the seeded netsim delay
// process, poses come back the same way, and the client displays at the
// next 120 Hz vsync. No wall clocks are read, so the same seed produces a
// byte-identical report. The real-concurrency proof of the session layer
// (N goroutine clients over netsim.Pipe, under the race detector) is
// session.TestMultiSessionSoak.
const (
	// networkVirtualSec is the simulated duration of each sweep cell.
	networkVirtualSec = 10.0
	// networkIMUHz and networkVsyncHz fix the simulated stream and
	// display rates (the tuned Table III values).
	networkIMUHz   = 500.0
	networkVsyncHz = 120.0
	// networkServerProcMs models the server-side integrate+publish cost
	// per sample.
	networkServerProcMs = 0.3
	// networkQueueBound is the in-flight bound Check enforces on
	// clean (non-faulted) cells. The worst legal case is a regional
	// retransmission stall: 120 ms of head-of-line blocking at 500 Hz
	// queues ~60 messages behind the loss plus ~18 in propagation.
	// Anything past this bound means the queue is growing without limit
	// — the link cannot carry the stream. Faulted cells are exempt (an
	// outage legitimately defers its whole window, ~200 messages at a
	// 0.4 s mean drop); they are instead required to *recover*: every
	// sample eventually delivered, zero decode errors.
	networkQueueBound = 128
)

// mtpSummary is a deterministic latency summary in milliseconds.
type mtpSummary struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	N      int     `json:"n"`
}

func mtpStats(samples []float64) mtpSummary {
	if len(samples) == 0 {
		return mtpSummary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return mtpSummary{
		MeanMs: sum / float64(len(sorted)),
		P50Ms:  q(0.50),
		P99Ms:  q(0.99),
		MaxMs:  sorted[len(sorted)-1],
		N:      len(sorted),
	}
}

// networkSessionResult is one simulated session's row.
type networkSessionResult struct {
	Session        int    `json:"session"`
	IMUSent        int    `json:"imu_sent"`
	PosesDelivered int    `json:"poses_delivered"`
	PosesDisplayed int    `json:"poses_displayed"`
	BytesUp        int64  `json:"bytes_up"`
	BytesDown      int64  `json:"bytes_down"`
	DecodeErrors   int    `json:"decode_errors"`
	LostUp         uint64 `json:"lost_up"`
	LostDown       uint64 `json:"lost_down"`
	MaxInflight    int    `json:"max_inflight"`
	// StaleDrops counts delivered poses never displayed: a newer pose
	// superseded them before the next vsync (latest-wins working as
	// intended — at 500 Hz IMU against 120 Hz vsync, most poses drop).
	StaleDrops   int        `json:"stale_drops"`
	RepeatVsyncs int        `json:"repeat_vsyncs"`
	MTP          mtpSummary `json:"mtp"`
}

// networkCellResult is one sweep cell: a link profile (possibly with
// fault-scenario outages) crossed with N concurrent sessions.
type networkCellResult struct {
	Profile   netsim.Profile         `json:"profile"`
	Faulted   bool                   `json:"faulted"`
	RTTMs     float64                `json:"rtt_ms"`
	Sessions  []networkSessionResult `json:"sessions"`
	Aggregate mtpSummary             `json:"aggregate_mtp"`
}

// networkReport is the BENCH_network.json document.
type networkReport struct {
	Seed       int64               `json:"seed"`
	SessionsN  int                 `json:"sessions_per_cell"`
	VirtualSec float64             `json:"virtual_sec"`
	IMUHz      float64             `json:"imu_hz"`
	VsyncHz    float64             `json:"vsync_hz"`
	QueueBound int                 `json:"queue_bound"`
	Note       string              `json:"note"`
	Cells      []networkCellResult `json:"cells"`
}

const networkNote = "deterministic virtual-time sweep: MTP measured at " +
	"each 120Hz vsync as display time minus the IMU timestamp of the " +
	"newest pose delivered over the simulated link; every field is " +
	"byte-identical for a given seed (DESIGN.md §9)."

// Check is the offload gate: the server must sustain the required
// session count with a clean wire and bounded queues.
func (rep *networkReport) Check() []error {
	var f failures
	const minSessions = 8
	if len(rep.Cells) == 0 {
		f.addf("no sweep cells in report")
		return f
	}
	var loopback, regional float64
	var haveLoop, haveRegional bool
	for _, c := range rep.Cells {
		name := c.Profile.Name
		if c.Faulted {
			name += "+flaky"
		}
		if len(c.Sessions) < minSessions {
			f.addf("%s: %d sessions, need >= %d", name, len(c.Sessions), minSessions)
		}
		for _, s := range c.Sessions {
			// the wire is either correct or broken: no acceptable error rate
			if s.DecodeErrors != 0 {
				f.addf("%s session %d: %d decode errors", name, s.Session, s.DecodeErrors)
			}
			if s.MTP.N == 0 {
				f.addf("%s session %d: no MTP samples", name, s.Session)
			}
			if !c.Faulted && s.MaxInflight > rep.QueueBound {
				f.addf("%s session %d: in-flight queue hit %d (bound %d)",
					name, s.Session, s.MaxInflight, rep.QueueBound)
			}
			// faulted cells must instead recover: every sample delivered
			if c.Faulted && s.PosesDelivered != s.IMUSent {
				f.addf("%s session %d: only %d of %d poses delivered after outages",
					name, s.Session, s.PosesDelivered, s.IMUSent)
			}
		}
		if !c.Faulted {
			switch c.Profile.Name {
			case "loopback":
				loopback, haveLoop = c.Aggregate.MeanMs, true
			case "regional":
				regional, haveRegional = c.Aggregate.MeanMs, true
			}
		}
	}
	// the sweep must be measuring the link, not a constant
	if !haveLoop || !haveRegional {
		f.addf("sweep is missing the loopback or regional cell")
	} else if regional <= loopback {
		f.addf("MTP does not grow with RTT: regional %.2f ms <= loopback %.2f ms", regional, loopback)
	}
	return f
}

// networkExperiment runs the sweep and prints the RTT-vs-MTP table.
func networkExperiment(w io.Writer, nSessions int, seed int64) (*networkReport, error) {
	rep := &networkReport{
		Seed:       seed,
		SessionsN:  nSessions,
		VirtualSec: networkVirtualSec,
		IMUHz:      networkIMUHz,
		VsyncHz:    networkVsyncHz,
		QueueBound: networkQueueBound,
		Note:       networkNote,
	}

	// sweep cells: every profile clean, plus wifi overlaid with the
	// flaky-link scenario's outage windows
	type cellSpec struct {
		profile netsim.Profile
		faulted bool
	}
	var cells []cellSpec
	for _, p := range netsim.Profiles() {
		cells = append(cells, cellSpec{profile: p})
	}
	cells = append(cells, cellSpec{profile: netsim.DefaultProfile(), faulted: true})

	var upWindows, downWindows []faults.Window
	fc, err := faults.Scenario("flaky-link", seed, networkVirtualSec)
	if err != nil {
		return nil, err
	}
	for _, win := range faults.Generate(fc).Windows {
		switch win.Component {
		case "uplink":
			upWindows = append(upWindows, win)
		case "downlink":
			downWindows = append(downWindows, win)
		}
	}

	fmt.Fprintf(w, "Network offload experiment: RTT vs motion-to-photon (%d sessions/cell, seed %d)\n\n", nSessions, seed)
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s %8s\n",
		"link", "rtt ms", "mtp mean", "mtp p99", "stale/s", "lost", "errors")

	for ci, spec := range cells {
		cell := networkCellResult{Profile: spec.profile, Faulted: spec.faulted, RTTMs: spec.profile.RTTMs()}
		var agg []float64
		for si := 0; si < nSessions; si++ {
			linkSeed := seed + int64(ci)*10_000 + int64(si)*2
			up := netsim.NewLink(spec.profile, linkSeed)
			down := netsim.NewLink(spec.profile, linkSeed+1)
			if spec.faulted {
				up.SetOutages(upWindows)
				down.SetOutages(downWindows)
			}
			sim := simulateSession(sessionSpec{endSec: networkVirtualSec,
				imuHz: networkIMUHz, vsyncHz: networkVsyncHz,
				turnaroundSec: networkServerProcMs / 1000, up: up, down: down})
			sres := networkSessionResult{Session: si, IMUSent: sim.imuSent,
				PosesDelivered: sim.poses, PosesDisplayed: sim.displayed,
				BytesUp: sim.bytesUp, BytesDown: sim.bytesDown,
				DecodeErrors: sim.decodeErrors, LostUp: up.Lost(), LostDown: down.Lost(),
				MaxInflight: sim.maxInflight, StaleDrops: sim.poses - sim.displayed,
				RepeatVsyncs: sim.repeatVsyncs, MTP: mtpStats(sim.mtp)}
			cell.Sessions = append(cell.Sessions, sres)
			// rebuild the aggregate from the session stats' source samples
			// is wasteful; collect means weighted by n instead
			agg = append(agg, sres.MTP.MeanMs)
		}
		// aggregate across sessions: mean of means plus worst p99/max
		cellStats := mtpStats(agg)
		cellStats.N = 0
		for _, s := range cell.Sessions {
			cellStats.N += s.MTP.N
			if s.MTP.P99Ms > cellStats.P99Ms {
				cellStats.P99Ms = s.MTP.P99Ms
			}
			if s.MTP.MaxMs > cellStats.MaxMs {
				cellStats.MaxMs = s.MTP.MaxMs
			}
		}
		cell.Aggregate = cellStats
		rep.Cells = append(rep.Cells, cell)

		var lost uint64
		var errs, repeats int
		for _, s := range cell.Sessions {
			lost += s.LostUp + s.LostDown
			errs += s.DecodeErrors
			repeats += s.RepeatVsyncs
		}
		name := spec.profile.Name
		if spec.faulted {
			name += "+flaky"
		}
		fmt.Fprintf(w, "%-14s %8.1f %10.2f %10.2f %10.1f %10d %8d\n",
			name, cell.RTTMs, cell.Aggregate.MeanMs, cell.Aggregate.P99Ms,
			float64(repeats)/float64(nSessions)/networkVirtualSec, lost, errs)
	}

	return rep, nil
}

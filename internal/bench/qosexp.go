package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"illixr/internal/faults"
	"illixr/internal/qos"
)

// The QoS experiment (-exp qos) proves the adaptive controller of
// DESIGN.md §14 end to end, mostly in virtual time:
//
//   - Ramp cells: the same session load run with a static configuration
//     (equal worker split, full-quality knobs) and with the qos.Controller
//     in the loop (deadline-driven worker reallocation + bounded knob
//     degradation). Each kernel is a multi-server FIFO queue whose
//     backlog carries across epochs, so a saturated static split shows
//     up as an exploding reprojection queue — and an exploding MTP p99.
//     The controller sees exactly what the production RegistryTap would:
//     per-epoch frame counts, deadline misses, and windowed p99.
//
//   - Batching cell: cross-session same-kernel batching amortizes the
//     fixed per-dispatch cost (one pool dispatch per flush window
//     instead of one per item), run at a session count where the
//     unamortized variant is just past saturation — the saved dispatch
//     time is the difference between a diverging and a bounded queue.
//
//   - Fault cell: a faults.Generate cost spike multiplies the imgproc
//     kernel cost mid-run; the gate is behavioral — the controller must
//     degrade the pyramid_levels knob during the spike and restore it
//     to full quality after the spike clears (hysteresis both ways).
//
//   - Drift cell: the heaviest adaptive cell run twice; the controller
//     decision-log fingerprints and the bit patterns of the MTP p99
//     must match exactly (drift = 0).
//
// The real batching pipeline is node.TestReplicaQoSBatchesAcrossSessions.
//
// qosReport.Check gates the report: adaptive p99 <= static p99 *
// qosAdaptiveMarginFrac in the saturated ramp cells, fewer deadline
// misses, batching wins with positive dispatch savings, the fault cell
// degraded AND restored, drift == 0, and zero controller invariant
// violations.
const (
	qosVirtualSec   = 8.0
	qosEpochMs      = 50.0
	qosVsyncHz      = 120.0
	qosBudgetMs     = 1000.0 / qosVsyncHz
	qosTotalWorkers = 8
	// qosIMUAgeMs is the fixed sensor age folded into each MTP sample.
	qosIMUAgeMs = 2.1
	// qosDispatchMs is the fixed cost of one pool dispatch — the quantity
	// cross-session batching amortizes.
	qosDispatchMs = 0.06
	// qosFlushMs is the batch flush window: one dispatch per kernel per
	// window instead of one per item.
	qosFlushMs = 2.0
	// qosJitterFrac spreads per-item service times ±10% (seeded).
	qosJitterFrac = 0.2
	// qosAdaptiveMarginFrac is the ramp gate: in saturated cells the
	// adaptive p99 must be at most this fraction of the static p99.
	qosAdaptiveMarginFrac = 0.85
	// qosBatchSessions puts the unbatched variant just past saturation so
	// dispatch amortization is the difference between diverging and not.
	qosBatchSessions = 22
	qosFaultSessions = 12
	// qosFaultMagnitude pushes the spiked imgproc item cost past the vsync
	// budget at full quality but back under it at the knob floor.
	qosFaultMagnitude = 20.0
)

// qosRampSessions are the load-ramp cells; the top cells saturate the
// static reprojection allocation.
var qosRampSessions = []int{6, 12, 18, 24}

// qosKernelDef describes one kernel's synthetic cost model. Costs are
// calibrated against the real kernels' relative weights: reprojection
// per-vsync, hologram per-update with per-iteration cost, imgproc
// per-camera-frame scaling with pyramid levels, SSIM scoring scaling
// inversely with stride, audio per-block.
type qosKernelDef struct {
	name                                  string
	rateHz                                float64 // items per second per session
	baseMs                                float64 // knob-independent cost per item
	knob                                  string  // quality knob name ("" = none)
	knobMs                                float64 // added ms per knob unit (divided by the knob when inverse)
	inverse                               bool    // knob divides the cost (ssim stride)
	weight, minWorkers, full, floor, step int
}

var qosKernelDefs = []qosKernelDef{
	{name: "reprojection", rateHz: 120, baseMs: 0.75, weight: 3, minWorkers: 1},
	{name: "hologram", rateHz: 30, baseMs: 0.08, knob: "iterations", knobMs: 0.055,
		weight: 2, full: 10, floor: 2, step: 2},
	{name: "imgproc", rateHz: 15, baseMs: 0.10, knob: "pyramid_levels", knobMs: 0.16,
		weight: 2, full: 3, floor: 1, step: 1},
	{name: "ssim", rateHz: 15, baseMs: 0.04, knob: "stride", knobMs: 0.50, inverse: true,
		weight: 1, full: 1, floor: 4, step: 1},
	{name: "audio", rateHz: 50, baseMs: 0.18, weight: 1, minWorkers: 1},
}

// costMs is the per-item service time at a knob setting.
func (d qosKernelDef) costMs(knobVal int) float64 {
	if d.knob == "" {
		return d.baseMs
	}
	if d.inverse {
		return d.baseMs + d.knobMs/float64(knobVal)
	}
	return d.baseMs + d.knobMs*float64(knobVal)
}

// qosStaticSplit is the baseline allocation: equal split, remainder to
// the earlier kernels — what a non-adaptive deployment would pin.
func qosStaticSplit(total int) []int {
	n := len(qosKernelDefs)
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}

func qosControllerConfig(seed int64) qos.Config {
	budgetUs := qosBudgetMs * 1000.0 // 8333.3 µs, truncated like the tap would
	cfg := qos.Config{Seed: seed, TotalWorkers: qosTotalWorkers,
		BudgetUs: int64(budgetUs)}
	for _, d := range qosKernelDefs {
		ks := qos.KernelSpec{ID: d.name, Weight: d.weight, MinWorkers: d.minWorkers}
		if d.knob != "" {
			ks.Knobs = []qos.KnobSpec{{Name: d.knob, Full: d.full, Floor: d.floor, Step: d.step}}
		}
		cfg.Kernels = append(cfg.Kernels, ks)
	}
	return cfg
}

// qosVariantRow is one simulated configuration's outcome.
type qosVariantRow struct {
	Mode           string         `json:"mode"` // "static" | "adaptive"
	MTP            mtpSummary     `json:"mtp"`
	DeadlineMisses int            `json:"deadline_misses"`
	Frames         int            `json:"frames"`
	FinalWorkers   map[string]int `json:"final_workers"`
	FinalKnobs     map[string]int `json:"final_knobs,omitempty"`
	WorkerMoves    int            `json:"worker_moves,omitempty"`
	KnobSteps      int            `json:"knob_steps,omitempty"`
	Fingerprint    string         `json:"log_fingerprint,omitempty"`
	Violations     int            `json:"violations"`
}

// qosRampCell compares static vs adaptive at one session count.
type qosRampCell struct {
	Sessions int           `json:"sessions"`
	Static   qosVariantRow `json:"static"`
	Adaptive qosVariantRow `json:"adaptive"`
	// AdaptiveP99AdvantageMs = static p99 - adaptive p99 (positive: win).
	AdaptiveP99AdvantageMs float64 `json:"adaptive_p99_advantage_ms"`
}

// qosBatchCell compares per-item vs cross-session batched dispatch.
type qosBatchCell struct {
	Sessions  int           `json:"sessions"`
	Unbatched qosVariantRow `json:"unbatched"`
	Batched   qosVariantRow `json:"batched"`
	// DispatchSavedMs is total dispatch overhead amortized away.
	DispatchSavedMs       float64 `json:"dispatch_saved_ms"`
	Items                 int     `json:"items"`
	Dispatches            int     `json:"dispatches"`
	BatchedP99AdvantageMs float64 `json:"batched_p99_advantage_ms"`
}

// qosFaultCell is the degrade-then-restore behavioral check.
type qosFaultCell struct {
	Sessions     int        `json:"sessions"`
	Windows      []string   `json:"windows"`
	Knob         string     `json:"knob"`
	FullValue    int        `json:"full_value"`
	MostDegraded int        `json:"most_degraded"`
	FinalValue   int        `json:"final_value"`
	Degraded     bool       `json:"degraded"`
	Restored     bool       `json:"restored"`
	MTP          mtpSummary `json:"mtp"`
}

// qosDriftCell is the re-run determinism audit.
type qosDriftCell struct {
	Sessions     int    `json:"sessions"`
	FingerprintA string `json:"fingerprint_a"`
	FingerprintB string `json:"fingerprint_b"`
	P99BitsA     string `json:"p99_bits_a"`
	P99BitsB     string `json:"p99_bits_b"`
	Drift        int    `json:"drift"`
}

// qosReport is the BENCH_qos.json document.
type qosReport struct {
	Seed               int64         `json:"seed"`
	TotalWorkers       int           `json:"total_workers"`
	VirtualSec         float64       `json:"virtual_sec"`
	EpochMs            float64       `json:"epoch_ms"`
	VsyncHz            float64       `json:"vsync_hz"`
	BudgetMs           float64       `json:"budget_ms"`
	AdaptiveMarginFrac float64       `json:"adaptive_margin_frac"`
	Ramp               []qosRampCell `json:"ramp"`
	Batching           qosBatchCell  `json:"batching"`
	Fault              qosFaultCell  `json:"fault"`
	Drift              qosDriftCell  `json:"drift"`
	Note               string        `json:"note"`
}

const qosNote = "adaptive QoS cells (DESIGN.md §14): per-kernel multi-server FIFO " +
	"queues with cross-epoch backlog, fed to the real qos.Controller as the " +
	"RegistryTap would feed it (frames, misses, windowed p99); static = equal " +
	"worker split at full quality. Batching cell amortizes the fixed dispatch " +
	"cost across sessions per flush window. Fault cell drives a faults.Generate " +
	"cost spike through the knob hysteresis. Sim cells are virtual-time and " +
	"seed-deterministic."

// Check is the adaptive-QoS gate: the loop must demonstrably close —
// deadline pressure driving worker reallocation and quality degradation,
// cross-session batching amortizing dispatch cost, and every decision
// reproducible bit-for-bit.
func (rep *qosReport) Check() []error {
	var f failures
	// cell shape
	if len(rep.Ramp) < 3 {
		f.addf("ramp has %d cells, need >= 3", len(rep.Ramp))
	}
	if rep.AdaptiveMarginFrac <= 0 || rep.AdaptiveMarginFrac >= 1 {
		f.addf("adaptive_margin_frac %.2f outside (0, 1) — the bench relaxed the contract",
			rep.AdaptiveMarginFrac)
	}
	checkSplit := func(where string, v qosVariantRow) {
		if v.MTP.N == 0 {
			f.addf("%s %s variant has an empty MTP distribution", where, v.Mode)
		}
		sum := 0
		for _, w := range v.FinalWorkers {
			sum += w
		}
		if sum != rep.TotalWorkers {
			f.addf("%s %s variant ended with %d workers allocated, want %d — workers leaked",
				where, v.Mode, sum, rep.TotalWorkers)
		}
		if v.Violations != 0 {
			f.addf("%s %s variant reported %d controller invariant violations",
				where, v.Mode, v.Violations)
		}
	}

	// adaptation under load
	saturated := 0
	for _, c := range rep.Ramp {
		where := fmt.Sprintf("ramp[%d sessions]", c.Sessions)
		checkSplit(where, c.Static)
		checkSplit(where, c.Adaptive)
		if c.Static.DeadlineMisses == 0 {
			// unsaturated cell: adapting must not make things worse
			if c.Adaptive.MTP.P99Ms > c.Static.MTP.P99Ms+0.5 {
				f.addf("%s: adaptive p99 %.2fms worse than static %.2fms with no pressure",
					where, c.Adaptive.MTP.P99Ms, c.Static.MTP.P99Ms)
			}
			continue
		}
		saturated++
		if c.Adaptive.MTP.P99Ms > c.Static.MTP.P99Ms*rep.AdaptiveMarginFrac {
			f.addf("%s: adaptive p99 %.2fms not within %.0f%% of static %.2fms",
				where, c.Adaptive.MTP.P99Ms, rep.AdaptiveMarginFrac*100, c.Static.MTP.P99Ms)
		}
		if c.Adaptive.DeadlineMisses >= c.Static.DeadlineMisses {
			f.addf("%s: adaptive missed %d deadlines, static %d — no improvement",
				where, c.Adaptive.DeadlineMisses, c.Static.DeadlineMisses)
		}
		if c.Adaptive.WorkerMoves == 0 {
			f.addf("%s: saturated but the controller never moved a worker", where)
		}
	}
	if saturated == 0 {
		f.addf("no ramp cell saturated the static split — the ramp proves nothing")
	}

	// cross-session batching
	b := rep.Batching
	checkSplit("batching", b.Unbatched)
	checkSplit("batching", b.Batched)
	if b.DispatchSavedMs <= 0 {
		f.addf("batching saved %.2fms of dispatch — amortization did not happen", b.DispatchSavedMs)
	}
	if b.Dispatches >= b.Items {
		f.addf("batching issued %d dispatches for %d items — nothing was batched",
			b.Dispatches, b.Items)
	}
	if b.Batched.MTP.P99Ms >= b.Unbatched.MTP.P99Ms {
		f.addf("batched p99 %.2fms not better than unbatched %.2fms",
			b.Batched.MTP.P99Ms, b.Unbatched.MTP.P99Ms)
	}

	// degrade under faults, restore after
	fc := rep.Fault
	if len(fc.Windows) == 0 {
		f.addf("fault cell ran with no fault windows")
	}
	if !fc.Degraded || fc.MostDegraded >= fc.FullValue {
		f.addf("fault cell never degraded %s below full %d (most degraded %d)",
			fc.Knob, fc.FullValue, fc.MostDegraded)
	}
	if !fc.Restored || fc.FinalValue != fc.FullValue {
		f.addf("fault cell ended with %s=%d, want full %d restored after the spike",
			fc.Knob, fc.FinalValue, fc.FullValue)
	}

	// determinism
	d := rep.Drift
	if d.Drift != 0 || d.FingerprintA != d.FingerprintB || d.P99BitsA != d.P99BitsB {
		f.addf("drift cell: fingerprint %s vs %s, p99 bits %s vs %s (drift %d) — re-run not reproducible",
			d.FingerprintA, d.FingerprintB, d.P99BitsA, d.P99BitsB, d.Drift)
	}
	if d.FingerprintA == "" {
		f.addf("drift cell has no decision-log fingerprint")
	}
	return f
}

// qosMix is the repo-wide splitmix64 step.
func qosMix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func qosP99(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(0.99*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// qosSimState is one kernel's queue state across epochs.
type qosSimState struct {
	free []float64 // per-server next-free time (ms); backlog lives here
	acc  float64   // fractional item carry between epochs
	knob int
}

// runQoSSim runs one configuration through the virtual-time queue model.
// Everything is deterministic in (sessions, seed, adaptive, batched,
// sched): fixed iteration order, seeded jitter, integer controller.
func runQoSSim(sessions int, seed int64, adaptive, batched bool, sched *faults.Schedule) (qosVariantRow, *qosSimExtras, error) {
	row := qosVariantRow{Mode: "static", FinalWorkers: map[string]int{}}
	extra := &qosSimExtras{mostDegraded: map[string]int{}}
	var ctl *qos.Controller
	if adaptive {
		row.Mode = "adaptive"
		row.FinalKnobs = map[string]int{}
		var err error
		if ctl, err = qos.NewController(qosControllerConfig(seed)); err != nil {
			return row, nil, err
		}
	}

	split := qosStaticSplit(qosTotalWorkers)
	states := make([]qosSimState, len(qosKernelDefs))
	for i, d := range qosKernelDefs {
		w := split[i]
		if adaptive {
			w = ctl.Workers(d.name)
		}
		states[i] = qosSimState{free: make([]float64, w), knob: d.full}
		if d.knob == "" {
			states[i].knob = 0
		}
	}

	rng := uint64(seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	epochs := int(qosVirtualSec * 1000 / qosEpochMs)
	var mtp, lats []float64
	stats := make([]qos.KernelStats, 0, len(qosKernelDefs))
	for e := 0; e < epochs; e++ {
		t0 := float64(e) * qosEpochMs
		stats = stats[:0]
		for ki := range qosKernelDefs {
			d, st := qosKernelDefs[ki], &states[ki]
			st.acc += float64(sessions) * d.rateHz * qosEpochMs / 1000
			n := int(st.acc)
			st.acc -= float64(n)
			if n == 0 {
				stats = append(stats, qos.KernelStats{Kernel: d.name})
				continue
			}
			service := d.costMs(st.knob) * sched.CostMultiplier(d.name, t0/1000)
			dispatches := n
			if batched {
				if fl := int(qosEpochMs / qosFlushMs); fl < dispatches {
					dispatches = fl
				}
			}
			dispPerItem := float64(dispatches) * qosDispatchMs / float64(n)
			extra.items += n
			extra.dispatches += dispatches
			extra.dispatchMs += float64(dispatches) * qosDispatchMs

			lats = lats[:0]
			misses := 0
			for i := 0; i < n; i++ {
				arr := t0 + float64(i)*qosEpochMs/float64(n)
				u := float64(qosMix(&rng)>>11) / float64(1<<53)
				s := (service + dispPerItem) * (1 + qosJitterFrac*(u-0.5))
				best := 0
				for j := 1; j < len(st.free); j++ {
					if st.free[j] < st.free[best] {
						best = j
					}
				}
				start := arr
				if st.free[best] > start {
					start = st.free[best]
				}
				fin := start + s
				st.free[best] = fin
				lat := fin - arr
				lats = append(lats, lat)
				if lat > qosBudgetMs {
					misses++
				}
				if d.name == "reprojection" {
					display := math.Ceil(fin/qosBudgetMs) * qosBudgetMs
					mtp = append(mtp, display-arr+qosIMUAgeMs)
				}
			}
			row.DeadlineMisses += misses
			sort.Float64s(lats)
			stats = append(stats, qos.KernelStats{Kernel: d.name, Frames: n,
				Misses: misses, P99Us: int64(qosP99(lats) * 1000)})
		}

		if adaptive {
			d := ctl.Step(stats)
			if d.Moved {
				row.WorkerMoves++
			}
			if d.Stepped {
				row.KnobSteps++
			}
			for ki := range qosKernelDefs {
				def, st := qosKernelDefs[ki], &states[ki]
				if want := ctl.Workers(def.name); want != len(st.free) {
					if want < len(st.free) {
						// the surviving servers inherit the deepest backlog:
						// shrinking never erases queued work
						sort.Float64s(st.free)
						st.free = append(st.free[:0], st.free[len(st.free)-want:]...)
					} else {
						for len(st.free) < want {
							st.free = append(st.free, t0+qosEpochMs)
						}
					}
				}
				if def.knob == "" {
					continue
				}
				if v, ok := ctl.Knob(def.name, def.knob); ok {
					st.knob = v
					if cur, seen := extra.mostDegraded[def.name]; !seen ||
						qosAbs(v-def.full) > qosAbs(cur-def.full) {
						extra.mostDegraded[def.name] = v
					}
				}
			}
		}
	}

	for ki, d := range qosKernelDefs {
		row.FinalWorkers[d.name] = len(states[ki].free)
		if adaptive && d.knob != "" {
			row.FinalKnobs[d.name+"."+d.knob] = states[ki].knob
		}
	}
	row.Frames = len(mtp)
	row.MTP = mtpStats(mtp)
	extra.p99Bits = math.Float64bits(row.MTP.P99Ms)
	if adaptive {
		row.Fingerprint = fmt.Sprintf("%016x", ctl.LogFingerprint())
		row.Violations = ctl.Violations()
	}
	return row, extra, nil
}

type qosSimExtras struct {
	items, dispatches int
	dispatchMs        float64
	mostDegraded      map[string]int // adaptive: extreme knob value seen
	p99Bits           uint64
}

func qosAbs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// qosExperiment runs the adaptive-QoS cells and prints the summary table.
func qosExperiment(w io.Writer, seed int64) (*qosReport, error) {
	rep := &qosReport{Seed: seed, TotalWorkers: qosTotalWorkers,
		VirtualSec: qosVirtualSec, EpochMs: qosEpochMs, VsyncHz: qosVsyncHz,
		BudgetMs: qosBudgetMs, AdaptiveMarginFrac: qosAdaptiveMarginFrac,
		Note: qosNote}

	fmt.Fprintf(w, "QoS experiment: %d workers, %.0f Hz vsync (budget %.2f ms), seed %d\n",
		qosTotalWorkers, qosVsyncHz, qosBudgetMs, seed)

	for _, n := range qosRampSessions {
		st, _, err := runQoSSim(n, seed, false, false, nil)
		if err != nil {
			return nil, err
		}
		ad, _, err := runQoSSim(n, seed, true, false, nil)
		if err != nil {
			return nil, err
		}
		cell := qosRampCell{Sessions: n, Static: st, Adaptive: ad,
			AdaptiveP99AdvantageMs: st.MTP.P99Ms - ad.MTP.P99Ms}
		rep.Ramp = append(rep.Ramp, cell)
		fmt.Fprintf(w, "  ramp %2d sessions: static p99 %8.2f ms (%4d misses)  adaptive p99 %8.2f ms (%4d misses, %d moves, %d knob steps)\n",
			n, st.MTP.P99Ms, st.DeadlineMisses, ad.MTP.P99Ms, ad.DeadlineMisses,
			ad.WorkerMoves, ad.KnobSteps)
	}

	un, unx, err := runQoSSim(qosBatchSessions, seed, false, false, nil)
	if err != nil {
		return nil, err
	}
	ba, bax, err := runQoSSim(qosBatchSessions, seed, false, true, nil)
	if err != nil {
		return nil, err
	}
	un.Mode, ba.Mode = "unbatched", "batched"
	rep.Batching = qosBatchCell{Sessions: qosBatchSessions, Unbatched: un, Batched: ba,
		DispatchSavedMs:       unx.dispatchMs - bax.dispatchMs,
		Items:                 bax.items,
		Dispatches:            bax.dispatches,
		BatchedP99AdvantageMs: un.MTP.P99Ms - ba.MTP.P99Ms}
	fmt.Fprintf(w, "  batching %d sessions: unbatched p99 %8.2f ms  batched p99 %8.2f ms  (%d items in %d dispatches, %.1f ms dispatch saved)\n",
		qosBatchSessions, un.MTP.P99Ms, ba.MTP.P99Ms,
		bax.items, bax.dispatches, rep.Batching.DispatchSavedMs)

	sched := faults.Generate(faults.Config{Seed: seed, Duration: qosVirtualSec,
		CostSpikes: 1, CostSpikeMeanSec: 2.0, CostSpikeMagnitude: qosFaultMagnitude,
		SpikeComponents: []string{"imgproc"}})
	fa, fax, err := runQoSSim(qosFaultSessions, seed, true, false, sched)
	if err != nil {
		return nil, err
	}
	fault := qosFaultCell{Sessions: qosFaultSessions, Knob: "pyramid_levels",
		FullValue: 3, MTP: fa.MTP}
	for _, win := range sched.Windows {
		fault.Windows = append(fault.Windows, win.String())
	}
	fault.FinalValue = fa.FinalKnobs["imgproc.pyramid_levels"]
	if v, ok := fax.mostDegraded["imgproc"]; ok {
		fault.MostDegraded = v
	} else {
		fault.MostDegraded = fault.FullValue
	}
	fault.Degraded = fault.MostDegraded < fault.FullValue
	fault.Restored = fault.FinalValue == fault.FullValue
	rep.Fault = fault
	fmt.Fprintf(w, "  fault (imgproc x%.0f spike): %s dipped to %d, ended at %d (degraded %v, restored %v)\n",
		qosFaultMagnitude, fault.Knob, fault.MostDegraded, fault.FinalValue,
		fault.Degraded, fault.Restored)

	heaviest := qosRampSessions[len(qosRampSessions)-1]
	dr1, dx1, err := runQoSSim(heaviest, seed, true, false, nil)
	if err != nil {
		return nil, err
	}
	dr2, dx2, err := runQoSSim(heaviest, seed, true, false, nil)
	if err != nil {
		return nil, err
	}
	drift := qosDriftCell{Sessions: heaviest,
		FingerprintA: dr1.Fingerprint, FingerprintB: dr2.Fingerprint,
		P99BitsA: fmt.Sprintf("%016x", dx1.p99Bits),
		P99BitsB: fmt.Sprintf("%016x", dx2.p99Bits)}
	if drift.FingerprintA != drift.FingerprintB {
		drift.Drift++
	}
	if drift.P99BitsA != drift.P99BitsB {
		drift.Drift++
	}
	rep.Drift = drift
	fmt.Fprintf(w, "  drift: fingerprint %s vs %s, p99 bits %s vs %s → %d\n",
		drift.FingerprintA, drift.FingerprintB, drift.P99BitsA, drift.P99BitsB, drift.Drift)

	return rep, nil
}

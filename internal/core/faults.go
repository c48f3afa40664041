package core

import (
	"sort"

	"illixr/internal/faults"
	"illixr/internal/simsched"
	"illixr/internal/telemetry"
)

// Degradation policies under faults (the §V "what happens under stress"
// questions the happy-path model cannot answer):
//
//   - Camera dropout: camera releases are suppressed, so VIO is simply
//     never triggered — it skips the missing frames cleanly and resumes
//     on the first frame after the window.
//   - IMU dropout: integrator triggers stop, the fast-pose log goes
//     stale, and MTP's IMU-age term grows by up to the dropout length —
//     visible, bounded degradation instead of a crash.
//   - VIO stall: the stalled estimator instance hangs (occupying its
//     core) until the window ends, modelling a watchdog timeout +
//     restart; camera triggers released meanwhile are dropped by the
//     latest-wins policy. The integrator keeps dead-reckoning from the
//     last good VIO estimate with growing uncertainty, and reprojection
//     keeps warping on those increasingly stale poses instead of
//     blanking the display.
//   - Cost spike: the component's compute is multiplied for the window;
//     latest-wins frame dropping absorbs the overload.
//
// FaultReport quantifies each policy: MTP before/during/after every
// window, the displayed-pose staleness series, and the recovery time
// (how long after the window until the affected stream produced again).

// faultBaselineSec is the span before/after each window over which the
// baseline and post-recovery MTP summaries are taken.
const faultBaselineSec = 1.0

// deadReckonSigmaM models the integrator's dead-reckoning uncertainty
// (meters, 1-sigma) as a function of how stale the newest VIO estimate
// is: a 1 cm floor plus 5 cm per second of IMU-only propagation (typical
// MEMS-IMU drift growth).
func deadReckonSigmaM(staleSec float64) float64 {
	if staleSec < 0 {
		staleSec = 0
	}
	return 0.01 + 0.05*staleSec
}

// FaultWindowReport measures the QoE impact of one fault window.
type FaultWindowReport struct {
	Window faults.Window
	// MTP summaries over faultBaselineSec before the window, the window
	// itself, and faultBaselineSec after it.
	MTPBefore, MTPDuring, MTPAfter telemetry.Summary
	// StalenessPeakMs is the oldest displayed pose during the window
	// (milliseconds since the newest VIO estimate).
	StalenessPeakMs float64
	// RecoverySec is the time from window end until the affected stream
	// produced its next output; -1 when not measurable (live-only faults
	// or no output before the horizon).
	RecoverySec float64
}

// FaultReport is the fault-injection measurement record of one run.
type FaultReport struct {
	Schedule *faults.Schedule
	// SensorDrops counts releases suppressed per sensor stream.
	SensorDrops map[string]int
	// Restarts counts component restarts: VIO stall timeout-restarts in
	// the simulated run.
	Restarts map[string]int
	// Windows reports each scheduled window in schedule order.
	Windows []FaultWindowReport
	// StalenessMs is the displayed-pose staleness timeline: at each
	// reprojection pass, the age of the newest VIO estimate it could
	// draw on.
	StalenessMs *telemetry.Series
	// UncertaintyM is the dead-reckoning 1-sigma position uncertainty
	// series derived from StalenessMs via deadReckonSigmaM.
	UncertaintyM *telemetry.Series
}

// summarizeMTP summarizes the samples with display time in [lo, hi).
func summarizeMTP(mtp []telemetry.MTPSample, lo, hi float64) telemetry.Summary {
	var vals []float64
	for _, m := range mtp {
		if m.T >= lo && m.T < hi {
			vals = append(vals, m.Total())
		}
	}
	return telemetry.Summarize(vals)
}

// buildFaultReport assembles the per-window QoE measurements after the
// scheduler has run.
func buildFaultReport(fs *faults.Schedule, sim *simsched.Sim, mtp []telemetry.MTPSample,
	vioDone []vioCompletion, poseLog []poseStamp, warpDone []warpEvent,
	restarts map[string]int) *FaultReport {

	rep := &FaultReport{
		Schedule:     fs,
		SensorDrops:  map[string]int{},
		Restarts:     restarts,
		StalenessMs:  &telemetry.Series{Name: "vio_staleness_ms"},
		UncertaintyM: &telemetry.Series{Name: "pose_uncertainty_m"},
	}
	rep.SensorDrops[CompCamera] = sim.Stats(CompCamera).Faulted
	rep.SensorDrops[CompIMU] = sim.Stats(CompIMU).Faulted

	for _, wd := range warpDone {
		i := sort.Search(len(vioDone), func(i int) bool { return vioDone[i].finish > wd.start })
		last := 0.0
		if i > 0 {
			last = vioDone[i-1].finish
		}
		stale := wd.start - last
		rep.StalenessMs.Append(wd.start, stale*1000)
		rep.UncertaintyM.Append(wd.start, deadReckonSigmaM(stale))
	}

	for _, w := range fs.Windows {
		wr := FaultWindowReport{Window: w, RecoverySec: -1}
		wr.MTPBefore = summarizeMTP(mtp, w.Start-faultBaselineSec, w.Start)
		wr.MTPDuring = summarizeMTP(mtp, w.Start, w.End)
		wr.MTPAfter = summarizeMTP(mtp, w.End, w.End+faultBaselineSec)
		for i, t := range rep.StalenessMs.T {
			if t >= w.Start && t < w.End && rep.StalenessMs.Values[i] > wr.StalenessPeakMs {
				wr.StalenessPeakMs = rep.StalenessMs.Values[i]
			}
		}
		switch w.Kind {
		case faults.VIOStall, faults.CameraDrop:
			// perception recovers when VIO produces its next estimate
			for _, v := range vioDone {
				if v.finish > w.End {
					wr.RecoverySec = v.finish - w.End
					break
				}
			}
		case faults.IMUDrop:
			// fast-pose stream recovers with the next integrator output
			for _, ps := range poseLog {
				if ps.available > w.End {
					wr.RecoverySec = ps.available - w.End
					break
				}
			}
		case faults.CostSpike:
			for _, sp := range sim.Stats(w.Component).Spans {
				if sp.Release >= w.End {
					wr.RecoverySec = sp.Finish - w.End
					break
				}
			}
		}
		rep.Windows = append(rep.Windows, wr)
	}
	return rep
}

package vio

import (
	"math"
	"sort"

	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

// Runner drives a Filter over a recorded dataset, wiring the front end,
// IMU buffering and per-frame statistics together. It is used by the
// standalone characterization experiments (§III-D) and by the ablation
// study of §V-E.
type Runner struct {
	Filter   *Filter
	Frontend Frontend

	// Estimates holds one entry per processed camera frame.
	Estimates []Estimate
	// FrontendStats is parallel to Estimates.
	FrontendStats []FrontendStats
}

// NewRunner builds a runner for the dataset with the given parameters,
// initializing the filter from ground truth at t=0 (ILLIXR's static
// initialization period).
func NewRunner(ds *sensors.Dataset, p Params, fe Frontend) *Runner {
	init := integrator.State{
		T:   0,
		Pos: ds.Traj.Position(0),
		Vel: ds.Traj.Velocity(0),
		Rot: ds.Traj.Orientation(0),
	}
	return &Runner{
		Filter:   NewFilter(p, sensors.DefaultIMUNoise(), init),
		Frontend: fe,
	}
}

// Run processes every camera frame in the dataset, feeding the IMU
// samples that fall between consecutive frames.
func (r *Runner) Run(ds *sensors.Dataset) {
	imuIdx := 0
	prevT := 0.0
	for _, frame := range ds.Frames {
		var imu []sensors.IMUSample
		for imuIdx < len(ds.IMU) && ds.IMU[imuIdx].T <= frame.T {
			if ds.IMU[imuIdx].T >= prevT {
				imu = append(imu, ds.IMU[imuIdx])
			}
			imuIdx++
		}
		feats, fes := r.Frontend.Process(frame)
		est := r.Filter.ProcessFrame(FrameInput{T: frame.T, Features: feats, IMU: imu})
		est.Stats.DetectedFeatures = fes.Detected
		est.Stats.TrackedFeatures = fes.Tracked
		est.Stats.ImagePixels = fes.Pixels
		r.Estimates = append(r.Estimates, est)
		r.FrontendStats = append(r.FrontendStats, fes)
		prevT = frame.T
	}
}

// ATE computes the absolute trajectory error (RMSE of position error in
// meters) of the estimates against the dataset's ground truth.
func (r *Runner) ATE(ds *sensors.Dataset) float64 {
	if len(r.Estimates) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range r.Estimates {
		gt := ds.GroundTruthAt(e.T)
		d := e.Pose.TranslationDistance(gt)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(r.Estimates)))
}

// Reanchor returns the fast pose at time t propagated from estimate e:
// an RK4 integrator starts from e's state and is fed the samples of the
// time-ordered IMU stream in (e.T, t], the way ILLIXR's integrator
// re-anchors on each new VIO estimate (§II-A).
func Reanchor(e Estimate, imu []sensors.IMUSample, t float64) mathx.Pose {
	in := integrator.New(integrator.State{
		T: e.T, Pos: e.Pose.Pos, Vel: e.Vel, Rot: e.Pose.Rot, BiasG: e.BiasG, BiasA: e.BiasA,
	})
	j := sort.Search(len(imu), func(j int) bool { return imu[j].T > e.T })
	for ; j < len(imu) && imu[j].T <= t; j++ {
		in.Feed(imu[j])
	}
	return in.FastPose()
}

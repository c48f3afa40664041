package vio

import (
	"math"
	"testing"

	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

func shortDataset(duration float64) *sensors.Dataset {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = duration
	cfg.Landmarks = 400
	cfg.MaxFeats = 60
	return sensors.GenerateDataset(cfg)
}

func TestTriangulateLinearExact(t *testing.T) {
	// Two noiseless views of a known point.
	pf := mathx.Vec3{X: 3, Y: 0.5, Z: 1.5}
	poseA := mathx.Pose{Pos: mathx.Vec3{X: 0, Y: 0, Z: 1.5}, Rot: mathx.QuatIdentity()}
	poseB := mathx.Pose{Pos: mathx.Vec3{X: 0, Y: 1, Z: 1.5}, Rot: mathx.QuatIdentity()}
	mkObs := func(p mathx.Pose) featureObs {
		pc := sensors.WorldPointToCam(p, pf)
		return featureObs{XN: pc.X / pc.Z, YN: pc.Y / pc.Z}
	}
	got, ok := triangulateLinear(
		[]mathx.Pose{poseA, poseB},
		[]featureObs{mkObs(poseA), mkObs(poseB)})
	if !ok {
		t.Fatal("triangulation failed")
	}
	if got.Sub(pf).Norm() > 1e-9 {
		t.Errorf("triangulated %v, want %v", got, pf)
	}
}

func TestTriangulateGNRefines(t *testing.T) {
	pf := mathx.Vec3{X: 4, Y: -0.3, Z: 2}
	var poses []mathx.Pose
	var obs []featureObs
	for i := 0; i < 6; i++ {
		p := mathx.Pose{
			Pos: mathx.Vec3{X: 0, Y: float64(i) * 0.3, Z: 1.5},
			Rot: mathx.QuatIdentity(),
		}
		pc := sensors.WorldPointToCam(p, pf)
		// small noise
		o := featureObs{XN: pc.X/pc.Z + 0.001*float64(i%3-1), YN: pc.Y / pc.Z}
		poses = append(poses, p)
		obs = append(obs, o)
	}
	var a mathx.Arena
	got, res, ok := triangulateGN(&a, poses, obs, 5)
	if !ok {
		t.Fatal("GN failed")
	}
	if got.Sub(pf).Norm() > 0.02 {
		t.Errorf("GN point %v, want %v", got, pf)
	}
	if res > 0.01 {
		t.Errorf("residual %v", res)
	}
}

func TestTriangulateDegenerate(t *testing.T) {
	// Identical poses: rays are parallel, no parallax.
	pose := mathx.Pose{Rot: mathx.QuatIdentity()}
	obs := featureObs{XN: 0.1, YN: 0.2}
	if _, ok := triangulateLinear([]mathx.Pose{pose, pose}, []featureObs{obs, obs}); ok {
		t.Error("degenerate triangulation accepted")
	}
	if _, ok := triangulateLinear([]mathx.Pose{pose}, []featureObs{obs}); ok {
		t.Error("single observation accepted")
	}
}

func TestFilterCloneAugmentation(t *testing.T) {
	init := integrator.State{Rot: mathx.QuatIdentity()}
	f := NewFilter(DefaultParams(), sensors.DefaultIMUNoise(), init)
	if f.dim() != imuDim {
		t.Fatalf("initial dim %d", f.dim())
	}
	f.augmentClone()
	if f.dim() != imuDim+6 || f.CloneCount() != 1 {
		t.Fatalf("after clone: dim %d, clones %d", f.dim(), f.CloneCount())
	}
	// clone covariance equals current pose covariance blocks
	if math.Abs(f.cov.At(imuDim, imuDim)-f.cov.At(0, 0)) > 1e-12 {
		t.Error("clone rotation variance mismatch")
	}
	if math.Abs(f.cov.At(imuDim+3, imuDim+3)-f.cov.At(12, 12)) > 1e-12 {
		t.Error("clone position variance mismatch")
	}
	// cross-covariance between clone and IMU pose must be full
	if math.Abs(f.cov.At(imuDim, 0)-f.cov.At(0, 0)) > 1e-12 {
		t.Error("clone cross-covariance missing")
	}
}

func TestMarginalizeOldestShrinksState(t *testing.T) {
	init := integrator.State{Rot: mathx.QuatIdentity()}
	f := NewFilter(DefaultParams(), sensors.DefaultIMUNoise(), init)
	f.augmentClone()
	f.augmentClone()
	firstID := f.clones[0].ID
	f.tracks[7] = &track{FeatureID: 7, Obs: []featureObs{{CloneID: firstID}, {CloneID: f.clones[1].ID}}}
	f.marginalizeOldest()
	if f.CloneCount() != 1 || f.dim() != imuDim+6 {
		t.Fatalf("clones %d dim %d", f.CloneCount(), f.dim())
	}
	if len(f.tracks[7].Obs) != 1 {
		t.Errorf("stale observation kept: %d", len(f.tracks[7].Obs))
	}
}

func TestPropagationGrowsUncertainty(t *testing.T) {
	tr := sensors.DefaultTrajectory()
	init := integrator.State{
		Pos: tr.Position(0), Vel: tr.Velocity(0), Rot: tr.Orientation(0),
	}
	f := NewFilter(DefaultParams(), sensors.DefaultIMUNoise(), init)
	p0 := f.cov.At(12, 12)
	imu := sensors.NewIMU(tr, sensors.DefaultIMUNoise(), 500, 1)
	var prev sensors.IMUSample
	for i := 0; i <= 250; i++ {
		cur := imu.Sample(float64(i) / 500)
		if i > 0 {
			f.propagate(prev, cur)
		}
		prev = cur
	}
	if f.cov.At(12, 12) <= p0 {
		t.Error("position uncertainty did not grow during dead reckoning")
	}
}

func TestVIOTracksTrajectory(t *testing.T) {
	ds := shortDataset(6)
	p := DefaultParams()
	r := NewRunner(ds, p, NewGeometricFrontend(ds.Cam, p.MaxFeatures))
	r.Run(ds)
	if len(r.Estimates) != len(ds.Frames) {
		t.Fatalf("estimates %d, frames %d", len(r.Estimates), len(ds.Frames))
	}
	ate := r.ATE(ds)
	if ate > 0.05 {
		t.Errorf("ATE %.3f m too large", ate)
	}
	// the final pose must also be close (no end-of-run divergence)
	last := r.Estimates[len(r.Estimates)-1]
	gt := ds.GroundTruthAt(last.T)
	if last.Pose.TranslationDistance(gt) > 0.1 {
		t.Errorf("final pose error %.3f m", last.Pose.TranslationDistance(gt))
	}
}

func TestVIOBeatsDeadReckoning(t *testing.T) {
	ds := shortDataset(6)
	p := DefaultParams()
	r := NewRunner(ds, p, NewGeometricFrontend(ds.Cam, p.MaxFeatures))
	r.Run(ds)

	// dead reckoning with the same IMU
	in := integrator.New(integrator.State{
		Pos: ds.Traj.Position(0), Vel: ds.Traj.Velocity(0), Rot: ds.Traj.Orientation(0),
	})
	for _, s := range ds.IMU {
		in.Feed(s)
	}
	drErr := in.State().Pos.Sub(ds.Traj.Position(ds.IMU[len(ds.IMU)-1].T)).Norm()
	vioErr := r.Estimates[len(r.Estimates)-1].Pose.TranslationDistance(
		ds.GroundTruthAt(r.Estimates[len(r.Estimates)-1].T))
	if vioErr >= drErr {
		t.Errorf("VIO error %.3f not better than dead reckoning %.3f", vioErr, drErr)
	}
}

func TestVIOWindowBounded(t *testing.T) {
	ds := shortDataset(4)
	p := DefaultParams()
	r := NewRunner(ds, p, NewGeometricFrontend(ds.Cam, p.MaxFeatures))
	r.Run(ds)
	if r.Filter.CloneCount() > p.MaxClones {
		t.Errorf("window grew to %d clones", r.Filter.CloneCount())
	}
	if r.Filter.SLAMFeatureCount() > p.MaxSLAM {
		t.Errorf("SLAM features %d exceed cap", r.Filter.SLAMFeatureCount())
	}
}

func TestVIOStatsPopulated(t *testing.T) {
	ds := shortDataset(4)
	p := DefaultParams()
	r := NewRunner(ds, p, NewGeometricFrontend(ds.Cam, p.MaxFeatures))
	r.Run(ds)
	var sawMSCKF, sawMarg, sawTrack bool
	for _, e := range r.Estimates {
		if e.Stats.MSCKFRows > 0 {
			sawMSCKF = true
		}
		if e.Stats.MarginalizedOps > 0 {
			sawMarg = true
		}
		if e.Stats.TrackedFeatures > 0 {
			sawTrack = true
		}
		if e.Stats.StateDim < imuDim {
			t.Fatal("state dim below IMU dim")
		}
	}
	if !sawMSCKF {
		t.Error("no MSCKF updates recorded")
	}
	if !sawMarg {
		t.Error("no marginalizations recorded")
	}
	if !sawTrack {
		t.Error("no tracked features recorded")
	}
}

func TestVIOFastParamsCheaper(t *testing.T) {
	ds := shortDataset(4)
	full := NewRunner(ds, DefaultParams(), NewGeometricFrontend(ds.Cam, DefaultParams().MaxFeatures))
	full.Run(ds)
	fast := NewRunner(ds, FastParams(), NewGeometricFrontend(ds.Cam, FastParams().MaxFeatures))
	fast.Run(ds)
	dimFull := full.Estimates[len(full.Estimates)-1].Stats.StateDim
	dimFast := fast.Estimates[len(fast.Estimates)-1].Stats.StateDim
	if dimFast >= dimFull {
		t.Errorf("fast params state dim %d !< full %d", dimFast, dimFull)
	}
}

func TestGeometricFrontendNormalizes(t *testing.T) {
	cam := sensors.VGACamera()
	fe := NewGeometricFrontend(cam, 0)
	frame := sensors.CameraFrame{
		T:        0,
		Features: []sensors.FeatureObs{{ID: 1, U: cam.Cx, V: cam.Cy}},
	}
	out, stats := fe.Process(frame)
	if len(out) != 1 {
		t.Fatal("feature dropped")
	}
	if math.Abs(out[0].XN) > 1e-9 || math.Abs(out[0].YN) > 1e-9 {
		t.Errorf("center pixel normalized to (%v,%v)", out[0].XN, out[0].YN)
	}
	if stats.Detected != 1 {
		t.Error("first sighting should count as detection")
	}
	_, stats2 := fe.Process(frame)
	if stats2.Tracked != 1 {
		t.Error("second sighting should count as tracked")
	}
}

func TestImageFrontendTracks(t *testing.T) {
	cam := sensors.CameraModel{Width: 160, Height: 120, Fx: 80, Fy: 80, Cx: 80, Cy: 60}
	world := sensors.NewRoomWorld(300, 3)
	tr := sensors.DefaultTrajectory()
	p := DefaultParams()
	p.MaxFeatures = 40
	fe := NewImageFrontend(cam, p)
	f0 := sensors.CameraFrame{T: 0, Features: world.VisibleFeatures(cam, tr.Pose(0), 0, 0, nil)}
	out0, st0 := fe.Process(f0)
	if len(out0) == 0 || st0.Detected == 0 {
		t.Fatalf("no detections: %d feats", len(out0))
	}
	f1 := sensors.CameraFrame{T: 0.066, Features: world.VisibleFeatures(cam, tr.Pose(0.066), 0, 0, nil)}
	_, st1 := fe.Process(f1)
	if st1.Tracked == 0 {
		t.Error("no features tracked between consecutive frames")
	}
	if st1.Pixels != 160*120 {
		t.Errorf("pixel count %d", st1.Pixels)
	}
}

func TestAblationAccuracyVsCost(t *testing.T) {
	// §V-E: the high-accuracy config should achieve lower ATE than the
	// fast config on the same data, at higher state dimension.
	ds := shortDataset(6)
	full := NewRunner(ds, DefaultParams(), NewGeometricFrontend(ds.Cam, DefaultParams().MaxFeatures))
	full.Run(ds)
	fast := NewRunner(ds, FastParams(), NewGeometricFrontend(ds.Cam, FastParams().MaxFeatures))
	fast.Run(ds)
	if full.ATE(ds) > 0.05 || fast.ATE(ds) > 0.15 {
		t.Errorf("ATEs too large: full %.3f fast %.3f", full.ATE(ds), fast.ATE(ds))
	}
}

// CloneCount returns the number of stochastic clones in the window.
func (f *Filter) CloneCount() int { return len(f.clones) }

// SLAMFeatureCount returns the number of landmarks currently in the state.
func (f *Filter) SLAMFeatureCount() int { return len(f.slam) }

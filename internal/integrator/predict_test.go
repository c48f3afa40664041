package integrator

import (
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

func TestPredictPoseConstantVelocity(t *testing.T) {
	s := State{
		Pos: mathx.Vec3{X: 1},
		Vel: mathx.Vec3{X: 2},
		Rot: mathx.QuatIdentity(),
	}
	p := PredictPose(s, mathx.Vec3{Z: 0.5}, 0.1)
	if p.Pos.Sub(mathx.Vec3{X: 1.2}).Norm() > 1e-12 {
		t.Errorf("predicted pos %v", p.Pos)
	}
	want := mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, 0.05)
	if p.Rot.AngleTo(want) > 1e-9 {
		t.Errorf("predicted rot off by %v", p.Rot.AngleTo(want))
	}
	// zero/negative dt is the identity
	if PredictPose(s, mathx.Vec3{}, 0) != s.pose() {
		t.Error("dt=0 should return current pose")
	}
}

func TestPredictAheadReducesLatencyError(t *testing.T) {
	// Predicting 20 ms ahead should land closer to the future true pose
	// than the unpredicted current pose does.
	traj := sensors.DefaultTrajectory()
	in := New(State{
		Pos: traj.Position(0), Vel: traj.Velocity(0), Rot: traj.Orientation(0),
	})
	rate := 500.0
	for i := 1; i <= 500; i++ {
		tm := float64(i) / rate
		in.Feed(sensors.IMUSample{
			T:     tm,
			Gyro:  traj.AngularVelocityBody(tm),
			Accel: traj.Orientation(tm).Inverse().Rotate(traj.Acceleration(tm).Sub(sensors.Gravity)),
		})
	}
	const horizon = 0.020
	future := traj.Pose(1.0 + horizon)
	unpredicted := in.FastPose().TranslationDistance(future)
	predicted := in.PredictAhead(horizon).TranslationDistance(future)
	if predicted >= unpredicted {
		t.Errorf("prediction did not help: %.5f vs %.5f", predicted, unpredicted)
	}
	rotU := in.FastPose().RotationDistance(future)
	rotP := in.PredictAhead(horizon).RotationDistance(future)
	if rotP >= rotU {
		t.Errorf("rotation prediction did not help: %.5f vs %.5f", rotP, rotU)
	}
}

package integrator

import (
	"math"
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

// noiselessIMU samples the trajectory without noise or bias.
func noiselessIMU(traj *sensors.Trajectory, t float64) sensors.IMUSample {
	q := traj.Orientation(t)
	return sensors.IMUSample{
		T:     t,
		Gyro:  traj.AngularVelocityBody(t),
		Accel: q.Inverse().Rotate(traj.Acceleration(t).Sub(sensors.Gravity)),
	}
}

func anchorAt(traj *sensors.Trajectory, t float64) State {
	return State{
		T:   t,
		Pos: traj.Position(t),
		Vel: traj.Velocity(t),
		Rot: traj.Orientation(t),
	}
}

func TestRK4TracksTrajectoryNoiseless(t *testing.T) {
	traj := sensors.DefaultTrajectory()
	in := New(anchorAt(traj, 0))
	rate := 500.0
	dur := 2.0
	for i := 1; i <= int(dur*rate); i++ {
		in.Feed(noiselessIMU(traj, float64(i)/rate))
	}
	st := in.State()
	posErr := st.Pos.Sub(traj.Position(dur)).Norm()
	rotErr := st.Rot.AngleTo(traj.Orientation(dur))
	if posErr > 0.01 {
		t.Errorf("position drift %v m after %v s", posErr, dur)
	}
	if rotErr > 0.005 {
		t.Errorf("rotation drift %v rad after %v s", rotErr, dur)
	}
}

func TestRK4StationaryHolds(t *testing.T) {
	// Constant gravity input, no rotation: state must stay fixed.
	s := State{T: 0, Pos: mathx.Vec3{Z: 1}, Rot: mathx.QuatIdentity()}
	mk := func(t float64) sensors.IMUSample {
		return sensors.IMUSample{T: t, Accel: mathx.Vec3{Z: 9.81}}
	}
	for i := 1; i <= 500; i++ {
		s = RK4Step(s, mk(float64(i-1)*0.002), mk(float64(i)*0.002))
	}
	if s.Pos.Sub(mathx.Vec3{Z: 1}).Norm() > 1e-9 {
		t.Errorf("stationary drifted to %v", s.Pos)
	}
	if s.Vel.Norm() > 1e-9 {
		t.Errorf("stationary velocity %v", s.Vel)
	}
}

func TestRK4PureRotation(t *testing.T) {
	// Constant body rate about Z: after t seconds rotation angle = w*t.
	w := 0.5
	s := State{Rot: mathx.QuatIdentity(), Pos: mathx.Vec3{}, Vel: mathx.Vec3{}}
	// Keep accel equal to gravity reaction rotated into body frame so
	// velocity stays zero.
	mk := func(t float64, rot mathx.Quat) sensors.IMUSample {
		return sensors.IMUSample{
			T:     t,
			Gyro:  mathx.Vec3{Z: w},
			Accel: rot.Inverse().Rotate(mathx.Vec3{Z: 9.81}),
		}
	}
	dt := 0.002
	for i := 1; i <= 1000; i++ {
		prev := mk(float64(i-1)*dt, s.Rot)
		// re-evaluate accel with current rotation for the next sample
		cur := mk(float64(i)*dt, s.Rot)
		s = RK4Step(s, prev, cur)
	}
	want := mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, w*2.0)
	if s.Rot.AngleTo(want) > 0.01 {
		t.Errorf("rotation error %v rad", s.Rot.AngleTo(want))
	}
}

func TestRK4BiasCorrection(t *testing.T) {
	// A gyro bias that is exactly known should cancel.
	bias := mathx.Vec3{X: 0.02, Y: -0.01, Z: 0.03}
	s := State{Rot: mathx.QuatIdentity(), BiasG: bias}
	mk := func(t float64) sensors.IMUSample {
		return sensors.IMUSample{T: t, Gyro: bias, Accel: mathx.Vec3{Z: 9.81}}
	}
	for i := 1; i <= 500; i++ {
		s = RK4Step(s, mk(float64(i-1)*0.002), mk(float64(i)*0.002))
	}
	if s.Rot.AngleTo(mathx.QuatIdentity()) > 1e-9 {
		t.Errorf("bias not cancelled: %v", s.Rot.AngleTo(mathx.QuatIdentity()))
	}
}

func TestIntegratorResetReplaysAnchor(t *testing.T) {
	traj := sensors.DefaultTrajectory()
	in := New(anchorAt(traj, 0))
	rate := 500.0
	for i := 1; i <= 250; i++ {
		in.Feed(noiselessIMU(traj, float64(i)/rate))
	}
	// reset to ground truth at 0.5 s and continue
	in.Reset(anchorAt(traj, 0.5))
	for i := 251; i <= 500; i++ {
		in.Feed(noiselessIMU(traj, float64(i)/rate))
	}
	if err := in.State().Pos.Sub(traj.Position(1.0)).Norm(); err > 0.005 {
		t.Errorf("post-reset drift %v", err)
	}
}

func TestIntegratorIgnoresStaleSamples(t *testing.T) {
	in := New(State{T: 1.0, Rot: mathx.QuatIdentity()})
	in.Feed(sensors.IMUSample{T: 0.5, Gyro: mathx.Vec3{Z: 100}})
	if in.State().Rot.AngleTo(mathx.QuatIdentity()) > 0 {
		t.Error("stale sample mutated state")
	}
	// first fresh sample after anchor integrates from the anchor time
	in.Feed(sensors.IMUSample{T: 1.002, Accel: mathx.Vec3{Z: 9.81}})
	if math.Abs(in.State().T-1.002) > 1e-12 {
		t.Errorf("state time %v", in.State().T)
	}
}

func TestRK4ZeroDtNoop(t *testing.T) {
	s := State{T: 1, Pos: mathx.Vec3{X: 1}, Rot: mathx.QuatIdentity()}
	same := RK4Step(s, sensors.IMUSample{T: 1}, sensors.IMUSample{T: 1})
	if same != s {
		t.Error("zero-dt step changed state")
	}
}

func TestStepsCounter(t *testing.T) {
	traj := sensors.DefaultTrajectory()
	in := New(anchorAt(traj, 0))
	for i := 1; i <= 10; i++ {
		in.Feed(noiselessIMU(traj, float64(i)/500))
	}
	if in.Steps != 10 {
		t.Errorf("steps = %d", in.Steps)
	}
}

// Reset re-anchors the integrator on a new VIO estimate. IMU samples
// received after the anchor time must be replayed by the caller.
func (in *Integrator) Reset(anchor State) {
	in.state = anchor
	in.hasIMU = false
}

// Package integrator implements the IMU integrator component of the
// perception pipeline: given the most recent VIO state estimate (pose,
// velocity, IMU biases), it propagates raw IMU samples forward with RK4
// integration to produce high-rate (500 Hz) "fast pose" estimates between
// low-rate VIO updates, exactly as OpenVINS's RK4 propagator does in the
// original ILLIXR (Table II, "IMU Integrator").
package integrator

import (
	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

// State is the inertial navigation state propagated by the integrator.
type State struct {
	T     float64
	Pos   mathx.Vec3
	Vel   mathx.Vec3
	Rot   mathx.Quat
	BiasG mathx.Vec3
	BiasA mathx.Vec3
}

// pose returns the pose part of the state.
func (s State) pose() mathx.Pose { return mathx.Pose{Pos: s.Pos, Rot: s.Rot} }

// deriv is the continuous-time state derivative under constant IMU input.
type deriv struct {
	dPos mathx.Vec3
	dVel mathx.Vec3
	dRot mathx.Quat // quaternion derivative (non-unit)
}

// evalDeriv fills k in place: returned by value, the 80-byte deriv is
// copied out of each of a step's four calls.
func evalDeriv(k *deriv, rot mathx.Quat, vel mathx.Vec3, gyro, accel mathx.Vec3) {
	k.dPos = vel
	k.dVel = rot.Rotate(accel).Add(sensors.Gravity)
	k.dRot = mathx.DerivQuat(rot, gyro)
}

func addScaledQuat(q mathx.Quat, d mathx.Quat, s float64) mathx.Quat {
	return mathx.Quat{
		W: q.W + d.W*s,
		X: q.X + d.X*s,
		Y: q.Y + d.Y*s,
		Z: q.Z + d.Z*s,
	}
}

// RK4Step propagates the state by one IMU interval using classical
// Runge-Kutta 4 with linear interpolation of the IMU input across the
// step. prev and cur are consecutive IMU samples; the step length is
// cur.T - prev.T.
func RK4Step(s State, prev, cur sensors.IMUSample) State {
	rk4Step(&s, &prev, &cur)
	return s
}

// rk4Step is RK4Step on s in place: the Integrator's per-sample path
// steps its own state through the pointer instead of copying the 128-byte
// State in and out. Every field is updated from its own old value and the
// four slopes, which are all taken before the first update, so the
// arithmetic — and every bit of the result — is RK4Step's.
func rk4Step(s *State, prev, cur *sensors.IMUSample) {
	dt := cur.T - prev.T
	if dt <= 0 {
		return
	}
	// bias-corrected measurements at step start, midpoint, end
	g0 := prev.Gyro.Sub(s.BiasG)
	g1 := cur.Gyro.Sub(s.BiasG)
	gm := g0.Lerp(g1, 0.5)
	a0 := prev.Accel.Sub(s.BiasA)
	a1 := cur.Accel.Sub(s.BiasA)
	am := a0.Lerp(a1, 0.5)

	var k1, k2, k3, k4 deriv
	evalDeriv(&k1, s.Rot, s.Vel, g0, a0)

	rot2 := addScaledQuat(s.Rot, k1.dRot, dt/2).Normalized()
	vel2 := s.Vel.Add(k1.dVel.Scale(dt / 2))
	evalDeriv(&k2, rot2, vel2, gm, am)

	rot3 := addScaledQuat(s.Rot, k2.dRot, dt/2).Normalized()
	vel3 := s.Vel.Add(k2.dVel.Scale(dt / 2))
	evalDeriv(&k3, rot3, vel3, gm, am)

	rot4 := addScaledQuat(s.Rot, k3.dRot, dt).Normalized()
	vel4 := s.Vel.Add(k3.dVel.Scale(dt))
	evalDeriv(&k4, rot4, vel4, g1, a1)

	h := dt / 6
	s.T = cur.T
	s.Pos = s.Pos.Add(k1.dPos.Add(k2.dPos.Scale(2)).Add(k3.dPos.Scale(2)).Add(k4.dPos).Scale(h))
	s.Vel = s.Vel.Add(k1.dVel.Add(k2.dVel.Scale(2)).Add(k3.dVel.Scale(2)).Add(k4.dVel).Scale(h))
	dq := addScaledQuat(mathx.Quat{}, k1.dRot, 1)
	dq = addScaledQuat(dq, k2.dRot, 2)
	dq = addScaledQuat(dq, k3.dRot, 2)
	dq = addScaledQuat(dq, k4.dRot, 1)
	s.Rot = addScaledQuat(s.Rot, dq, h).Normalized()
}

// Integrator maintains the latest anchor state from VIO and a buffer of
// IMU samples, producing fast poses on demand.
type Integrator struct {
	state   State
	lastIMU sensors.IMUSample
	hasIMU  bool
	// Steps counts integration steps performed since the last reset (used
	// by the performance model as the work metric).
	Steps int
}

// New creates an integrator anchored at the given state, using RK4.
func New(anchor State) *Integrator {
	return &Integrator{state: anchor}
}

// Feed advances the state with one IMU sample. Samples older than the
// current state time are ignored.
func (in *Integrator) Feed(s sensors.IMUSample) {
	if !in.hasIMU {
		in.lastIMU = s
		in.hasIMU = true
		if s.T <= in.state.T {
			return
		}
		// Treat the anchor as holding the same measurement since state.T.
		prev := s
		prev.T = in.state.T
		rk4Step(&in.state, &prev, &s)
		in.Steps++
		return
	}
	if s.T <= in.lastIMU.T {
		return
	}
	rk4Step(&in.state, &in.lastIMU, &s)
	in.Steps++
	in.lastIMU = s
}

// State returns the current propagated state.
func (in *Integrator) State() State { return in.state }

// FastPose returns the current high-rate pose estimate.
func (in *Integrator) FastPose() mathx.Pose { return in.state.pose() }

package integrator

import "illixr/internal/mathx"

// PredictPose extrapolates a state forward by dt seconds under a
// constant-velocity, constant-angular-rate assumption — the pose
// prediction of the paper's footnote 3: reprojection can warp to the pose
// predicted for the actual display time rather than the last measured
// pose. (The paper's MTP accounting deliberately does not credit
// prediction, and neither does ours; this is the opt-in API.)
//
// wBody is the latest body-frame angular velocity (e.g. the most recent
// bias-corrected gyro sample).
func PredictPose(s State, wBody mathx.Vec3, dt float64) mathx.Pose {
	if dt <= 0 {
		return s.pose()
	}
	return mathx.Pose{
		Pos: s.Pos.Add(s.Vel.Scale(dt)),
		Rot: s.Rot.Mul(mathx.ExpMap(wBody.Scale(dt))).Normalized(),
	}
}

// PredictAhead extrapolates the integrator's current state using its most
// recent gyro sample.
func (in *Integrator) PredictAhead(dt float64) mathx.Pose {
	w := mathx.Vec3{}
	if in.hasIMU {
		w = in.lastIMU.Gyro.Sub(in.state.BiasG)
	}
	return PredictPose(in.state, w, dt)
}

package mathx

// Pose is a rigid-body transform (element of SE(3)): the rotation and
// position of a body frame expressed in a world frame. Applying a Pose maps
// body-frame coordinates to world-frame coordinates.
type Pose struct {
	Pos Vec3
	Rot Quat
}

// PoseIdentity returns the identity transform.
func PoseIdentity() Pose { return Pose{Rot: QuatIdentity()} }

// Apply maps a body-frame point into the world frame.
func (p Pose) Apply(v Vec3) Vec3 { return p.Rot.Rotate(v).Add(p.Pos) }

// ApplyDir rotates a body-frame direction into the world frame.
func (p Pose) ApplyDir(v Vec3) Vec3 { return p.Rot.Rotate(v) }

// Inverse returns the inverse transform (world → body).
func (p Pose) Inverse() Pose {
	ri := p.Rot.Inverse()
	return Pose{Pos: ri.Rotate(p.Pos.Neg()), Rot: ri}
}

// compose returns p ∘ q: the transform that applies q first, then p.
func (p Pose) compose(q Pose) Pose {
	return Pose{
		Pos: p.Rot.Rotate(q.Pos).Add(p.Pos),
		Rot: p.Rot.Mul(q.Rot).Normalized(),
	}
}

// Delta returns the relative transform from p to q: p.Compose(Delta) == q.
func (p Pose) Delta(q Pose) Pose { return p.Inverse().compose(q) }

// Interpolate blends two poses: position by linear interpolation, rotation
// by slerp. t=0 yields p, t=1 yields q.
func (p Pose) Interpolate(q Pose, t float64) Pose {
	return Pose{
		Pos: p.Pos.Lerp(q.Pos, t),
		Rot: p.Rot.slerp(q.Rot, t),
	}
}

// TranslationDistance returns the Euclidean distance between the positions
// of p and q.
func (p Pose) TranslationDistance(q Pose) float64 { return p.Pos.Sub(q.Pos).Norm() }

// RotationDistance returns the rotation angle (radians) between the
// orientations of p and q.
func (p Pose) RotationDistance(q Pose) float64 { return p.Rot.AngleTo(q.Rot) }

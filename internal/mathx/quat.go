package mathx

import "math"

// Quat is a unit quaternion representing a rotation, stored as
// w + xi + yj + zk (Hamilton convention, active rotation).
type Quat struct{ W, X, Y, Z float64 }

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds a quaternion rotating by angle (radians) about
// the given axis. The axis need not be normalized.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	a := axis.Normalized()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: a.X * s, Y: a.Y * s, Z: a.Z * s}
}

// QuatFromEuler builds a quaternion from intrinsic yaw (Z), pitch (Y),
// roll (X) angles in radians, applied in Z-Y-X order.
func QuatFromEuler(yaw, pitch, roll float64) Quat {
	qz := QuatFromAxisAngle(Vec3{Z: 1}, yaw)
	qy := QuatFromAxisAngle(Vec3{Y: 1}, pitch)
	qx := QuatFromAxisAngle(Vec3{X: 1}, roll)
	return qz.Mul(qy).Mul(qx)
}

// Mul returns the Hamilton product q * p (apply p first, then q).
func (q Quat) Mul(p Quat) Quat {
	return Quat{
		W: q.W*p.W - q.X*p.X - q.Y*p.Y - q.Z*p.Z,
		X: q.W*p.X + q.X*p.W + q.Y*p.Z - q.Z*p.Y,
		Y: q.W*p.Y - q.X*p.Z + q.Y*p.W + q.Z*p.X,
		Z: q.W*p.Z + q.X*p.Y - q.Y*p.X + q.Z*p.W,
	}
}

// conj returns the conjugate (inverse for unit quaternions).
func (q Quat) conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Inverse returns the rotation inverse. For unit quaternions this equals
// the conjugate.
func (q Quat) Inverse() Quat {
	n := q.normSq()
	if n == 0 {
		return QuatIdentity()
	}
	c := q.conj()
	return Quat{c.W / n, c.X / n, c.Y / n, c.Z / n}
}

// normSq returns the squared norm.
func (q Quat) normSq() float64 { return q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z }

// Norm returns the quaternion norm.
func (q Quat) Norm() float64 { return math.Sqrt(q.normSq()) }

// Normalized returns q scaled to unit norm. The sign of the quaternion is
// preserved: integrators rely on the quaternion path being continuous, so
// the double-cover ambiguity is deliberately NOT resolved here (use
// Canonical for a sign-canonical representative). NaN components and the
// zero quaternion normalize to identity; huge or subnormal quaternions
// whose squared norm over/underflows are rescaled by their largest
// component first, so every finite nonzero input yields a unit result.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if math.IsNaN(n) {
		return QuatIdentity()
	}
	if n == 0 || math.IsInf(n, 1) {
		// normSq over/underflowed. Dividing by the largest component
		// magnitude brings the components into [-1, 1] without touching the
		// numerics of the common path above.
		m := math.Max(math.Max(math.Abs(q.W), math.Abs(q.X)),
			math.Max(math.Abs(q.Y), math.Abs(q.Z)))
		if m == 0 || math.IsInf(m, 1) {
			return QuatIdentity()
		}
		return Quat{q.W / m, q.X / m, q.Y / m, q.Z / m}.Normalized()
	}
	inv := 1 / n
	return Quat{q.W * inv, q.X * inv, q.Y * inv, q.Z * inv}
}

// canonical returns the unit quaternion with W >= 0 representing the same
// rotation — a canonical representative for comparisons and hashing.
func (q Quat) canonical() Quat {
	n := q.Normalized()
	if n.W < 0 {
		return Quat{-n.W, -n.X, -n.Y, -n.Z}
	}
	return n
}

// Rotate applies the rotation to vector v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = v + 2*u × (u × v + w*v), u = (x,y,z)
	u := Vec3{q.X, q.Y, q.Z}
	t := u.Cross(v).Add(v.Scale(q.W)) // u×v + w v
	return v.Add(u.Cross(t).Scale(2))
}

// RotationMatrix converts q to a 3×3 rotation matrix.
func (q Quat) RotationMatrix() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y),
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x),
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y),
	}
}

// slerp spherically interpolates from q (t=0) to p (t=1).
func (q Quat) slerp(p Quat, t float64) Quat {
	cosTheta := q.W*p.W + q.X*p.X + q.Y*p.Y + q.Z*p.Z
	if cosTheta < 0 { // take the short path
		p = Quat{-p.W, -p.X, -p.Y, -p.Z}
		cosTheta = -cosTheta
	}
	if cosTheta > 0.9995 { // nearly parallel: lerp + normalize
		return Quat{
			q.W + t*(p.W-q.W),
			q.X + t*(p.X-q.X),
			q.Y + t*(p.Y-q.Y),
			q.Z + t*(p.Z-q.Z),
		}.Normalized()
	}
	theta := math.Acos(Clamp(cosTheta, -1, 1))
	sinTheta := math.Sin(theta)
	a := math.Sin((1-t)*theta) / sinTheta
	b := math.Sin(t*theta) / sinTheta
	return Quat{
		a*q.W + b*p.W,
		a*q.X + b*p.X,
		a*q.Y + b*p.Y,
		a*q.Z + b*p.Z,
	}.Normalized()
}

// AngleTo returns the rotation angle (radians, in [0, π]) between q and p.
func (q Quat) AngleTo(p Quat) float64 {
	d := q.Inverse().Mul(p).Normalized()
	return 2 * math.Acos(Clamp(math.Abs(d.W), -1, 1))
}

// ExpMap converts a rotation vector (axis * angle) to a quaternion.
func ExpMap(w Vec3) Quat {
	angle := w.Norm()
	if angle < 1e-12 {
		// first-order expansion keeps derivatives smooth near zero
		return Quat{W: 1, X: w.X / 2, Y: w.Y / 2, Z: w.Z / 2}.Normalized()
	}
	return QuatFromAxisAngle(w, angle)
}

// LogMap converts a unit quaternion to its rotation vector (the smallest
// rotation, i.e. the sign-canonical branch).
func (q Quat) LogMap() Vec3 {
	qn := q.canonical()
	v := Vec3{qn.X, qn.Y, qn.Z}
	s := v.Norm()
	if s < 1e-12 {
		return v.Scale(2)
	}
	angle := 2 * math.Atan2(s, qn.W)
	return v.Scale(angle / s)
}

// DerivQuat computes q̇ = ½ Ω(ω) q as a (non-unit) quaternion.
func DerivQuat(q Quat, w Vec3) Quat {
	return Quat{
		W: 0.5 * (-w.X*q.X - w.Y*q.Y - w.Z*q.Z),
		X: 0.5 * (w.X*q.W + w.Z*q.Y - w.Y*q.Z),
		Y: 0.5 * (w.Y*q.W - w.Z*q.X + w.X*q.Z),
		Z: 0.5 * (w.Z*q.W + w.Y*q.X - w.X*q.Y),
	}
}

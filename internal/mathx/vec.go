// Package mathx provides the mathematical substrate shared by all ILLIXR
// components: small fixed-size vectors and matrices for geometry,
// quaternions and SE(3) transforms for poses, and general dense linear
// algebra (Cholesky, QR, nullspace) used by the VIO and
// scene-reconstruction components.
package mathx

import "math"

// Vec3 is a 3-component double-precision vector.
type Vec3 struct{ X, Y, Z float64 }

// Vec4 is a 4-component double-precision vector.
type Vec4 struct{ X, Y, Z, W float64 }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v × u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// normSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Lerp linearly interpolates between v (t=0) and u (t=1).
func (v Vec3) Lerp(u Vec3, t float64) Vec3 { return v.Add(u.Sub(v).Scale(t)) }

// PerspectiveDivide returns the XYZ components divided by W.
func (v Vec4) PerspectiveDivide() Vec3 {
	if v.W == 0 {
		return Vec3{v.X, v.Y, v.Z}
	}
	return Vec3{v.X / v.W, v.Y / v.W, v.Z / v.W}
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

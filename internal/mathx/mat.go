package mathx

import "math"

// Mat3 is a row-major 3×3 matrix.
type Mat3 [9]float64

// Mat4 is a row-major 4×4 matrix.
type Mat4 [16]float64

// Mat3Identity returns the 3×3 identity.
func Mat3Identity() Mat3 { return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1} }

// At returns element (r, c).
func (m Mat3) At(r, c int) float64 { return m[3*r+c] }

// Mul returns m * n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[3*r+k] * n[3*k+c]
			}
			out[3*r+c] = s
		}
	}
	return out
}

// MulVec returns m * v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// Scale returns m * s element-wise.
func (m Mat3) Scale(s float64) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] * s
	}
	return out
}

// Add returns m + n element-wise.
func (m Mat3) Add(n Mat3) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] + n[i]
	}
	return out
}

// Det returns the determinant.
func (m Mat3) Det() float64 {
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// Inverse returns m⁻¹ and whether the matrix was invertible.
func (m Mat3) Inverse() (Mat3, bool) {
	d := m.Det()
	if math.Abs(d) < 1e-300 {
		return Mat3Identity(), false
	}
	inv := 1 / d
	return Mat3{
		(m[4]*m[8] - m[5]*m[7]) * inv,
		(m[2]*m[7] - m[1]*m[8]) * inv,
		(m[1]*m[5] - m[2]*m[4]) * inv,
		(m[5]*m[6] - m[3]*m[8]) * inv,
		(m[0]*m[8] - m[2]*m[6]) * inv,
		(m[2]*m[3] - m[0]*m[5]) * inv,
		(m[3]*m[7] - m[4]*m[6]) * inv,
		(m[1]*m[6] - m[0]*m[7]) * inv,
		(m[0]*m[4] - m[1]*m[3]) * inv,
	}, true
}

// Skew returns the skew-symmetric cross-product matrix [v]ₓ.
func Skew(v Vec3) Mat3 {
	return Mat3{
		0, -v.Z, v.Y,
		v.Z, 0, -v.X,
		-v.Y, v.X, 0,
	}
}

// Quat converts a rotation matrix to a unit quaternion (Shepperd's method).
func (m Mat3) Quat() Quat {
	tr := m[0] + m[4] + m[8]
	var q Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = Quat{W: s / 4, X: (m[7] - m[5]) / s, Y: (m[2] - m[6]) / s, Z: (m[3] - m[1]) / s}
	case m[0] > m[4] && m[0] > m[8]:
		s := math.Sqrt(1+m[0]-m[4]-m[8]) * 2
		q = Quat{W: (m[7] - m[5]) / s, X: s / 4, Y: (m[1] + m[3]) / s, Z: (m[2] + m[6]) / s}
	case m[4] > m[8]:
		s := math.Sqrt(1+m[4]-m[0]-m[8]) * 2
		q = Quat{W: (m[2] - m[6]) / s, X: (m[1] + m[3]) / s, Y: s / 4, Z: (m[5] + m[7]) / s}
	default:
		s := math.Sqrt(1+m[8]-m[0]-m[4]) * 2
		q = Quat{W: (m[3] - m[1]) / s, X: (m[2] + m[6]) / s, Y: (m[5] + m[7]) / s, Z: s / 4}
	}
	return q.Normalized()
}

// Mul returns m * n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += m[4*r+k] * n[4*k+c]
			}
			out[4*r+c] = s
		}
	}
	return out
}

// MulVec returns m * v.
func (m Mat4) MulVec(v Vec4) Vec4 {
	return Vec4{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z + m[3]*v.W,
		m[4]*v.X + m[5]*v.Y + m[6]*v.Z + m[7]*v.W,
		m[8]*v.X + m[9]*v.Y + m[10]*v.Z + m[11]*v.W,
		m[12]*v.X + m[13]*v.Y + m[14]*v.Z + m[15]*v.W,
	}
}

// Perspective builds a right-handed OpenGL-style projection matrix.
// fovY is the vertical field of view in radians.
func Perspective(fovY, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(fovY/2)
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}

// LookAt builds a right-handed view matrix from eye toward center with the
// given up vector.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalized()
	s := f.Cross(up.Normalized()).Normalized()
	u := s.Cross(f)
	return Mat4{
		s.X, s.Y, s.Z, -s.Dot(eye),
		u.X, u.Y, u.Z, -u.Dot(eye),
		-f.X, -f.Y, -f.Z, f.Dot(eye),
		0, 0, 0, 1,
	}
}

package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomQuat(rng *rand.Rand) Quat {
	return Quat{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalized()
}

func TestQuatIdentityRotate(t *testing.T) {
	v := Vec3{1, 2, 3}
	if got := QuatIdentity().Rotate(v); !vecApprox(got, v, tol) {
		t.Errorf("identity rotate = %v", got)
	}
}

func TestQuatAxisAngle90(t *testing.T) {
	q := QuatFromAxisAngle(Vec3{Z: 1}, math.Pi/2)
	got := q.Rotate(Vec3{1, 0, 0})
	if !vecApprox(got, Vec3{0, 1, 0}, tol) {
		t.Errorf("rotate x by 90 about z = %v, want y", got)
	}
}

func TestQuatMulComposition(t *testing.T) {
	// Rotating 90° about Z twice equals 180° about Z.
	q := QuatFromAxisAngle(Vec3{Z: 1}, math.Pi/2)
	q2 := q.Mul(q)
	got := q2.Rotate(Vec3{1, 0, 0})
	if !vecApprox(got, Vec3{-1, 0, 0}, tol) {
		t.Errorf("180 rotate = %v", got)
	}
}

func TestQuatInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := randomQuat(rng)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		back := q.Inverse().Rotate(q.Rotate(v))
		if !vecApprox(back, v, 1e-9*(1+v.Norm())) {
			t.Fatalf("inverse rotate mismatch: %v vs %v", back, v)
		}
	}
}

func TestQuatRotationMatrixAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		q := randomQuat(rng)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		a := q.Rotate(v)
		b := q.RotationMatrix().MulVec(v)
		if !vecApprox(a, b, 1e-9*(1+v.Norm())) {
			t.Fatalf("matrix disagrees: %v vs %v", a, b)
		}
	}
}

func TestMat3QuatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		q := randomQuat(rng)
		q2 := q.RotationMatrix().Quat().canonical()
		// q and -q represent the same rotation; Canonical() fixes sign.
		d := q.canonical()
		if !approx(d.W, q2.W, 1e-8) || !approx(d.X, q2.X, 1e-8) ||
			!approx(d.Y, q2.Y, 1e-8) || !approx(d.Z, q2.Z, 1e-8) {
			t.Fatalf("roundtrip %v -> %v", d, q2)
		}
	}
}

func TestSlerpEndpointsAndMidpoint(t *testing.T) {
	a := QuatIdentity()
	b := QuatFromAxisAngle(Vec3{Z: 1}, math.Pi/2)
	if got := a.slerp(b, 0); got.AngleTo(a) > 1e-9 {
		t.Errorf("slerp 0 = %v", got)
	}
	if got := a.slerp(b, 1); got.AngleTo(b) > 1e-9 {
		t.Errorf("slerp 1 = %v", got)
	}
	mid := a.slerp(b, 0.5)
	want := QuatFromAxisAngle(Vec3{Z: 1}, math.Pi/4)
	if mid.AngleTo(want) > 1e-9 {
		t.Errorf("slerp 0.5 = %v", mid)
	}
}

func TestSlerpShortPath(t *testing.T) {
	a := QuatFromAxisAngle(Vec3{Z: 1}, 0.1)
	b := QuatFromAxisAngle(Vec3{Z: 1}, 0.2)
	bNeg := Quat{-b.W, -b.X, -b.Y, -b.Z} // same rotation, opposite sign
	mid := a.slerp(bNeg, 0.5)
	want := QuatFromAxisAngle(Vec3{Z: 1}, 0.15)
	if mid.AngleTo(want) > 1e-9 {
		t.Errorf("short path violated: %v", mid)
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		w := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.5)
		got := ExpMap(w).LogMap()
		if !vecApprox(got, w, 1e-8) {
			t.Fatalf("exp/log roundtrip: %v -> %v", w, got)
		}
	}
}

func TestExpMapSmallAngle(t *testing.T) {
	w := Vec3{1e-14, 0, 0}
	q := ExpMap(w)
	if !approx(q.Norm(), 1, tol) {
		t.Errorf("small-angle exp not unit: %v", q.Norm())
	}
}

func TestAngleTo(t *testing.T) {
	a := QuatIdentity()
	b := QuatFromAxisAngle(Vec3{Y: 1}, 0.3)
	if got := a.AngleTo(b); !approx(got, 0.3, 1e-9) {
		t.Errorf("AngleTo = %v", got)
	}
}

func TestDerivQuatMatchesOmega(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 100; i++ {
		q := randomQuat(rng)
		w := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		d := DerivQuat(q, w)
		// compare with ½ Ω(ω) q
		om := Omega(w)
		qv := Vec4{q.W, q.X, q.Y, q.Z}
		ref := om.MulVec(qv).Scale(0.5)
		if !approx(d.W, ref.X, 1e-9) || !approx(d.X, ref.Y, 1e-9) ||
			!approx(d.Y, ref.Z, 1e-9) || !approx(d.Z, ref.W, 1e-9) {
			t.Fatalf("DerivQuat %v != Omega %v", d, ref)
		}
	}
}

func TestQuatNormalizedProperty(t *testing.T) {
	f := func(w, x, y, z float64) bool {
		q := Quat{clampInput(w), clampInput(x), clampInput(y), clampInput(z)}
		n := q.Normalized()
		c := q.canonical()
		return approx(n.Norm(), 1, 1e-9) && c.W >= 0 && approx(c.Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuatFromEuler(t *testing.T) {
	// Pure yaw: x-axis maps into the XY plane.
	q := QuatFromEuler(math.Pi/2, 0, 0)
	got := q.Rotate(Vec3{1, 0, 0})
	if !vecApprox(got, Vec3{0, 1, 0}, tol) {
		t.Errorf("yaw90 x = %v", got)
	}
}

// Omega returns the 4×4 Ω(ω) matrix used in quaternion kinematics
// q̇ = ½ Ω(ω) q with q stored as (w, x, y, z).
func Omega(w Vec3) Mat4 {
	return Mat4{
		0, -w.X, -w.Y, -w.Z,
		w.X, 0, w.Z, -w.Y,
		w.Y, -w.Z, 0, w.X,
		w.Z, w.Y, -w.X, 0,
	}
}

// Scale returns v * s.
func (v Vec4) Scale(s float64) Vec4 { return Vec4{v.X * s, v.Y * s, v.Z * s, v.W * s} }

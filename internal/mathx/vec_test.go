package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func vecApprox(a, b Vec3, eps float64) bool {
	return approx(a.X, b.X, eps) && approx(a.Y, b.Y, eps) && approx(a.Z, b.Z, eps)
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Norm(); !approx(got, math.Sqrt(14), tol) {
		t.Errorf("Norm = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if got := a.Cross(b); got != (Vec3{0, 0, 1}) {
		t.Errorf("x cross y = %v, want z", got)
	}
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampInput(ax), clampInput(ay), clampInput(az)}
		b := Vec3{clampInput(bx), clampInput(by), clampInput(bz)}
		c := a.Cross(b)
		return approx(c.Dot(a), 0, 1e-6*(1+a.Norm()*b.Norm())) &&
			approx(c.Dot(b), 0, 1e-6*(1+a.Norm()*b.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampInput maps arbitrary quick-generated floats into a sane range and
// filters NaN/Inf.
func clampInput(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 1000)
}

func TestVec3Normalized(t *testing.T) {
	v := Vec3{3, 4, 0}.Normalized()
	if !approx(v.Norm(), 1, tol) {
		t.Errorf("norm = %v", v.Norm())
	}
	z := Vec3{}.Normalized()
	if z != (Vec3{}) {
		t.Errorf("zero normalized = %v", z)
	}
}

func TestVec3Lerp(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{10, -10, 4}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); !vecApprox(got, b, tol) {
		t.Errorf("lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); !vecApprox(got, Vec3{5, -5, 2}, tol) {
		t.Errorf("lerp 0.5 = %v", got)
	}
}

func TestVec4PerspectiveDivide(t *testing.T) {
	v := Vec4{2, 4, 6, 2}
	if got := v.PerspectiveDivide(); got != (Vec3{1, 2, 3}) {
		t.Errorf("divide = %v", got)
	}
	w0 := Vec4{1, 2, 3, 0}
	if got := w0.PerspectiveDivide(); got != (Vec3{1, 2, 3}) {
		t.Errorf("w=0 divide = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp broken")
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 30, 45, 90, 180, 360, -90} {
		if got := Deg2Rad(d); !approx(got, d*math.Pi/180, tol) {
			t.Errorf("Deg2Rad(%v) = %v", d, got)
		}
	}
}

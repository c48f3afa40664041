package mathx

import (
	"math"
	"testing"
)

// FuzzQuatNormalize checks that Normalized maps every input — NaN, ±Inf,
// zero, huge and subnormal included — to a unit quaternion (or identity for
// degenerate inputs) without panicking.
func FuzzQuatNormalize(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.NaN(), 1.0, 0.0, 0.0)
	f.Add(1e308, 1e308, 1e308, 1e308) // normSq overflows
	f.Add(5e-324, 0.0, 0.0, 0.0)      // normSq underflows
	f.Add(math.Inf(1), 1.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, w, x, y, z float64) {
		q := Quat{W: w, X: x, Y: y, Z: z}.Normalized()
		for _, c := range []float64{q.W, q.X, q.Y, q.Z} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("Normalized(%v,%v,%v,%v) has non-finite component: %+v", w, x, y, z, q)
			}
		}
		n := q.Norm()
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("Normalized(%v,%v,%v,%v).Norm() = %v, want 1", w, x, y, z, n)
		}
	})
}

// FuzzSE3 checks the SE(3) group laws on arbitrary finite poses:
// p∘p⁻¹ ≈ identity and Delta(p, p) ≈ identity.
func FuzzSE3(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(1.0, -2.0, 3.0, 0.5, 0.5, 0.5, 0.5)
	f.Add(100.0, 0.0, -7.0, 0.2, -0.3, 0.4, 0.1)
	f.Fuzz(func(t *testing.T, px, py, pz, qw, qx, qy, qz float64) {
		for _, v := range []float64{px, py, pz, qw, qx, qy, qz} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip("restrict to finite, moderate magnitudes")
			}
		}
		q := Quat{W: qw, X: qx, Y: qy, Z: qz}
		if math.Abs(q.Norm()-1) > 0.5 {
			q = q.Normalized()
		}
		if math.Abs(q.Norm()-1) > 1e-6 {
			t.Skip("degenerate rotation")
		}
		p := Pose{Pos: Vec3{X: px, Y: py, Z: pz}, Rot: q}
		scale := 1.0 + math.Abs(px) + math.Abs(py) + math.Abs(pz)
		round := p.compose(p.Inverse())
		if d := round.Pos.Norm(); d > 1e-6*scale {
			t.Fatalf("p∘p⁻¹ translation %v exceeds tolerance (pose %+v)", d, p)
		}
		if a := round.Rot.AngleTo(QuatIdentity()); a > 1e-6 {
			t.Fatalf("p∘p⁻¹ rotation angle %v exceeds tolerance (pose %+v)", a, p)
		}
		delta := p.Delta(p)
		if d := delta.Pos.Norm(); d > 1e-6*scale {
			t.Fatalf("Delta(p,p) translation %v exceeds tolerance (pose %+v)", d, p)
		}
		if a := delta.Rot.AngleTo(QuatIdentity()); a > 1e-6 {
			t.Fatalf("Delta(p,p) rotation angle %v exceeds tolerance (pose %+v)", a, p)
		}
	})
}

package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD builds a random symmetric positive-definite matrix AᵀA + εI.
func randSPD(rng *rand.Rand, n int) *Mat {
	a := randMat(rng, n, n)
	spd := a.T().MulMat(a)
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += 0.5
	}
	return spd
}

func matApprox(a, b *Mat, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4, 6)
	if got := Eye(4).MulMat(a); !matApprox(got, a, tol) {
		t.Error("I*A != A")
	}
	if got := a.MulMat(Eye(6)); !matApprox(got, a, tol) {
		t.Error("A*I != A")
	}
}

func TestMatTransposeTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 5, 3)
	if !matApprox(a.T().T(), a, 0) {
		t.Error("transpose twice != original")
	}
}

func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 3, 4)
	b := randMat(rng, 4, 5)
	c := randMat(rng, 5, 2)
	left := a.MulMat(b).MulMat(c)
	right := a.MulMat(b.MulMat(c))
	if !matApprox(left, right, 1e-10) {
		t.Error("(AB)C != A(BC)")
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 5, 12} {
		spd := randSPD(rng, n)
		l, ok := spd.Cholesky()
		if !ok {
			t.Fatalf("n=%d: SPD matrix rejected", n)
		}
		if !matApprox(l.MulMat(l.T()), spd, 1e-8) {
			t.Fatalf("n=%d: L Lᵀ != A", n)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewMatFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, ok := m.Cholesky(); ok {
		t.Error("indefinite matrix accepted")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 8} {
		spd := randSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := spd.MulVecN(want)
		got, ok := spd.CholeskySolve(b)
		if !ok {
			t.Fatalf("n=%d: solve failed", n)
		}
		for i := range want {
			if !approx(got[i], want[i], 1e-7) {
				t.Fatalf("n=%d: x[%d]=%v want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestCholeskySolveMatBitEqual holds the factor-once matrix solve to the
// column-by-column CholeskySolve it replaced, bit for bit.
func TestCholeskySolveMatBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 2, 6, 15, 33} {
		spd := randSPD(rng, n)
		b := randMat(rng, n, n+3)
		got, ok := spd.CholeskySolveMat(b)
		if !ok {
			t.Fatalf("n=%d: SPD matrix rejected", n)
		}
		col := make([]float64, n)
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < n; r++ {
				col[r] = b.At(r, c)
			}
			want, _ := spd.CholeskySolve(col)
			for r := 0; r < n; r++ {
				if math.Float64bits(got.At(r, c)) != math.Float64bits(want[r]) {
					t.Fatalf("n=%d: X[%d,%d]=%x, column solve gives %x", n, r, c, got.At(r, c), want[r])
				}
			}
		}
	}
	indefinite := NewMatFrom(2, 2, []float64{1, 2, 2, 1})
	if _, ok := indefinite.CholeskySolveMat(Eye(2)); ok {
		t.Error("indefinite matrix accepted")
	}
}

// BenchmarkCholeskySolveMat is the VIO's Kalman-gain solve: a 30×30
// innovation covariance against a 30×45 right-hand side.
func BenchmarkCholeskySolveMat(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	spd := randSPD(rng, 30)
	rhs := randMat(rng, 30, 45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := spd.CholeskySolveMat(rhs); !ok {
			b.Fatal("solve failed")
		}
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{4, 4}, {8, 3}, {10, 6}} {
		a := randMat(rng, shape[0], shape[1])
		q, r := a.QR()
		if !matApprox(q.MulMat(r), a, 1e-8) {
			t.Fatalf("%v: QR != A", shape)
		}
		// Q orthonormal columns
		qtq := q.T().MulMat(q)
		if !matApprox(qtq, Eye(shape[1]), 1e-8) {
			t.Fatalf("%v: QᵀQ != I", shape)
		}
		// R upper triangular
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-9 {
					t.Fatalf("%v: R not triangular at (%d,%d)", shape, i, j)
				}
			}
		}
	}
}

func TestNullspace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 8, 3)
	n := a.Nullspace()
	if n.Rows != 8 || n.Cols != 5 {
		t.Fatalf("nullspace shape %dx%d", n.Rows, n.Cols)
	}
	// Nᵀ A ≈ 0
	prod := n.T().MulMat(a)
	if prod.MaxAbs() > 1e-8 {
		t.Errorf("NᵀA max abs = %v", prod.MaxAbs())
	}
	// columns orthonormal
	if !matApprox(n.T().MulMat(n), Eye(5), 1e-8) {
		t.Error("nullspace columns not orthonormal")
	}
}

func TestBlockOps(t *testing.T) {
	m := NewMat(4, 4)
	sub := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	m.SetBlock(1, 2, sub)
	if m.At(1, 2) != 1 || m.At(2, 3) != 4 {
		t.Error("SetBlock misplaced")
	}
	got := m.Block(1, 2, 2, 2)
	if !matApprox(got, sub, 0) {
		t.Error("Block readback mismatch")
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMatFrom(2, 2, []float64{1, 2, 4, 3})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("symmetrize = %v", m.Data)
	}
}

func TestChi2Threshold(t *testing.T) {
	if !approx(Chi2Threshold95(1), 3.841, 1e-3) {
		t.Errorf("chi2(1) = %v", Chi2Threshold95(1))
	}
	if !approx(Chi2Threshold95(10), 18.307, 1e-3) {
		t.Errorf("chi2(10) = %v", Chi2Threshold95(10))
	}
	// Wilson-Hilferty branch: chi2_0.95(30) ≈ 43.77
	if got := Chi2Threshold95(30); math.Abs(got-43.77) > 0.5 {
		t.Errorf("chi2(30) = %v", got)
	}
	if Chi2Threshold95(0) != 0 {
		t.Error("chi2(0) should be 0")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !approx(Mean(xs), 3, tol) {
		t.Error("mean")
	}
	if !approx(StdDev(xs), math.Sqrt(2), tol) {
		t.Error("stddev")
	}
	if !approx(Percentile(xs, 50), 3, tol) {
		t.Error("median")
	}
	if !approx(Percentile(xs, 0), 1, tol) || !approx(Percentile(xs, 100), 5, tol) {
		t.Error("percentile extremes")
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Error("min/max")
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Error("empty-slice handling")
	}
}

func TestMat3Inverse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50; i++ {
		var m Mat3
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		inv, ok := m.Inverse()
		if !ok {
			continue
		}
		prod := m.Mul(inv)
		id := Mat3Identity()
		for j := range prod {
			if !approx(prod[j], id[j], 1e-8) {
				t.Fatalf("M*M⁻¹ != I: %v", prod)
			}
		}
	}
}

func TestMat4Perspective(t *testing.T) {
	p := Perspective(Deg2Rad(90), 1, 0.1, 100)
	// A point on the near plane straight ahead maps to z = -1 (NDC).
	ndc := p.MulPoint(Vec3{0, 0, -0.1})
	if !approx(ndc.Z, -1, 1e-9) {
		t.Errorf("near-plane z = %v", ndc.Z)
	}
	far := p.MulPoint(Vec3{0, 0, -100})
	if !approx(far.Z, 1, 1e-6) {
		t.Errorf("far-plane z = %v", far.Z)
	}
}

func TestLookAt(t *testing.T) {
	v := LookAt(Vec3{0, 0, 5}, Vec3{}, Vec3{Y: 1})
	// The origin should be 5 units in front of the camera (-Z in view space).
	p := v.MulPoint(Vec3{})
	if !vecApprox(p, Vec3{0, 0, -5}, tol) {
		t.Errorf("lookat origin = %v", p)
	}
}

func TestSkewMatchesCross(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		a := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !vecApprox(Skew(a).MulVec(b), a.Cross(b), 1e-10) {
			t.Fatal("skew(a)b != a×b")
		}
	}
}

func TestPoseComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		p := Pose{
			Pos: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Rot: randomQuat(rng),
		}
		q := Pose{
			Pos: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Rot: randomQuat(rng),
		}
		// p ∘ p⁻¹ = identity
		id := p.compose(p.Inverse())
		if id.Pos.Norm() > 1e-9 || id.Rot.AngleTo(QuatIdentity()) > 1e-9 {
			t.Fatalf("p∘p⁻¹ = %+v", id)
		}
		// delta consistency: p ∘ delta = q
		d := p.Delta(q)
		q2 := p.compose(d)
		if q2.TranslationDistance(q) > 1e-9 || q2.RotationDistance(q) > 1e-9 {
			t.Fatal("delta composition mismatch")
		}
		// apply matches matrix
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !vecApprox(p.Apply(v), p.Matrix().MulPoint(v), 1e-9) {
			t.Fatal("Apply != Matrix·v")
		}
	}
}

func TestPoseInterpolate(t *testing.T) {
	a := PoseIdentity()
	b := Pose{Pos: Vec3{2, 0, 0}, Rot: QuatFromAxisAngle(Vec3{Z: 1}, 1.0)}
	mid := a.Interpolate(b, 0.5)
	if !vecApprox(mid.Pos, Vec3{1, 0, 0}, tol) {
		t.Errorf("mid pos = %v", mid.Pos)
	}
	if !approx(mid.Rot.AngleTo(QuatIdentity()), 0.5, 1e-9) {
		t.Errorf("mid angle = %v", mid.Rot.AngleTo(QuatIdentity()))
	}
}

// Block extracts the rows×cols sub-matrix at (r0, c0) as a copy.
func (m *Mat) Block(r0, c0, rows, cols int) *Mat {
	out := NewMat(rows, cols)
	m.BlockInto(out, r0, c0)
	return out
}

// CholeskySolveMat solves m X = B: m is factored once and each column of B
// is substituted through the factor, so every column equals the
// CholeskySolve of that column bit for bit.
func (m *Mat) CholeskySolveMat(b *Mat) (*Mat, bool) {
	out := NewMat(b.Rows, b.Cols)
	var ws Arena
	if !m.CholeskySolveMatInto(out, b, &ws) {
		return nil, false
	}
	return out, true
}

// MaxAbs returns the largest absolute element value.
func (m *Mat) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// MulMat returns m * n (GEMM).
func (m *Mat) MulMat(n *Mat) *Mat {
	out := NewMat(m.Rows, n.Cols)
	m.MulMatInto(out, n)
	return out
}

// MulVecN returns m * v for a length-Cols vector.
func (m *Mat) MulVecN(v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecNInto(out, v)
	return out
}

// Nullspace returns an orthonormal basis (rows×k) for the left nullspace
// of m, i.e. the columns N with Nᵀ m = 0, using the full QR of m: the
// allocating reference for NullspaceInto, which the MSCKF update uses.
func (m *Mat) Nullspace() *Mat {
	if m.Rows <= m.Cols {
		return NewMat(m.Rows, 0)
	}
	out := NewMat(m.Rows, m.Rows-m.Cols)
	var ws Arena
	m.NullspaceInto(out, &ws)
	return out
}

// QR computes the thin QR decomposition m = Q R via Householder
// reflections, with Q of shape rows×cols and R of shape cols×cols
// (requires rows >= cols).
func (m *Mat) QR() (q, r *Mat) {
	q, r = NewMat(m.Rows, m.Cols), NewMat(m.Cols, m.Cols)
	var ws Arena
	m.QRInto(q, r, &ws)
	return q, r
}

// Cholesky computes the lower-triangular factor L with m = L Lᵀ.
// Returns false if m is not (numerically) positive definite.
func (m *Mat) Cholesky() (*Mat, bool) {
	l := NewMat(m.Rows, m.Cols)
	if !m.choleskyInto(l) {
		return nil, false
	}
	return l, true
}

// MulPoint transforms a 3D point (w=1) and performs perspective division.
func (m Mat4) MulPoint(p Vec3) Vec3 {
	return m.MulVec(Vec4{p.X, p.Y, p.Z, 1}).PerspectiveDivide()
}

// NewMatFrom builds a matrix from row-major data. The slice is used
// directly (not copied).
func NewMatFrom(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mathx: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	m.TInto(out)
	return out
}

// Matrix returns the 4×4 homogeneous matrix of the transform.
func (p Pose) Matrix() Mat4 {
	return Mat4FromRotTrans(p.Rot.RotationMatrix(), p.Pos)
}

// Mat4FromRotTrans assembles a rigid transform matrix from rotation R and
// translation t.
func Mat4FromRotTrans(r Mat3, t Vec3) Mat4 {
	return Mat4{
		r[0], r[1], r[2], t.X,
		r[3], r[4], r[5], t.Y,
		r[6], r[7], r[8], t.Z,
		0, 0, 0, 1,
	}
}

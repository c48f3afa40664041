package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"illixr/internal/testutil"
)

// The ref* functions are the kernels as they stood before the *Into forms
// existed, kept verbatim as the reference: the allocating wrappers and the
// *Into forms (into a dirtied destination, out of a dirtied arena) must
// both reproduce them bit for bit.

func refMulMat(m, n *Mat) *Mat {
	out := NewMat(m.Rows, n.Cols)
	for r := 0; r < m.Rows; r++ {
		mrow := m.Data[r*m.Cols : (r+1)*m.Cols]
		orow := out.Data[r*n.Cols : (r+1)*n.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			nrow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for c, nv := range nrow {
				orow[c] += mv * nv
			}
		}
	}
	return out
}

func refT(m *Mat) *Mat {
	out := NewMat(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

func refCholesky(m *Mat) (*Mat, bool) {
	n := m.Rows
	l := NewMat(n, n)
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, false
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, true
}

func refCholeskySolve(m *Mat, b []float64) ([]float64, bool) {
	l, ok := refCholesky(m)
	if !ok {
		return nil, false
	}
	n := m.Rows
	x, y := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, true
}

// refHouseholder is the reduction both refQR and refNullspace began with.
func refHouseholder(m *Mat) (a *Mat, vs [][]float64) {
	rows, cols := m.Rows, m.Cols
	a = m.Clone()
	vs = make([][]float64, 0, cols)
	for k := 0; k < cols; k++ {
		norm := 0.0
		for i := k; i < rows; i++ {
			norm += a.At(i, k) * a.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			vs = append(vs, nil)
			continue
		}
		alpha := -norm
		if a.At(k, k) < 0 {
			alpha = norm
		}
		v := make([]float64, rows)
		v[k] = a.At(k, k) - alpha
		for i := k + 1; i < rows; i++ {
			v[i] = a.At(i, k)
		}
		vnorm2 := 0.0
		for i := k; i < rows; i++ {
			vnorm2 += v[i] * v[i]
		}
		if vnorm2 < 1e-300 {
			vs = append(vs, nil)
			continue
		}
		for c := k; c < cols; c++ {
			dot := 0.0
			for i := k; i < rows; i++ {
				dot += v[i] * a.At(i, c)
			}
			f := 2 * dot / vnorm2
			for i := k; i < rows; i++ {
				a.Set(i, c, a.At(i, c)-f*v[i])
			}
		}
		vs = append(vs, v)
	}
	return a, vs
}

// refReflect applies H₀ H₁ … to the unit vector e_col.
func refReflect(vs [][]float64, rows, col int) []float64 {
	e := make([]float64, rows)
	e[col] = 1
	for k := len(vs) - 1; k >= 0; k-- {
		v := vs[k]
		if v == nil {
			continue
		}
		vnorm2, dot := 0.0, 0.0
		for i := k; i < rows; i++ {
			vnorm2 += v[i] * v[i]
			dot += v[i] * e[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < rows; i++ {
			e[i] -= f * v[i]
		}
	}
	return e
}

func refQR(m *Mat) (q, r *Mat) {
	rows, cols := m.Rows, m.Cols
	a, vs := refHouseholder(m)
	r = NewMat(cols, cols)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	q = NewMat(rows, cols)
	for c := 0; c < cols; c++ {
		e := refReflect(vs, rows, c)
		for i := 0; i < rows; i++ {
			q.Set(i, c, e[i])
		}
	}
	return q, r
}

func refNullspace(m *Mat) *Mat {
	rows, cols := m.Rows, m.Cols
	_, vs := refHouseholder(m)
	out := NewMat(rows, rows-cols)
	for c := 0; c < rows-cols; c++ {
		e := refReflect(vs, rows, cols+c)
		for i := 0; i < rows; i++ {
			out.Set(i, c, e[i])
		}
	}
	return out
}

// sparseMat is randMat with exact zeros sprinkled in (the GEMM skips them),
// one negative zero, and, when it has a second column, one all-zero column
// (a Householder step with nothing to reflect).
func sparseMat(rng *rand.Rand, rows, cols int) *Mat {
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		}
	}
	if cols > 1 {
		for r := 0; r < rows; r++ {
			m.Set(r, 1, 0)
		}
	}
	m.Data[rng.Intn(len(m.Data))] = math.Copysign(0, -1)
	return m
}

// dirtyMat is a destination full of NaN: a kernel that reads its
// destination, or leaves part of it unwritten, cannot match the reference.
func dirtyMat(rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// dirtyArena is an arena whose memory was all handed out, filled with NaN
// and taken back.
func dirtyArena() *Arena {
	var a Arena
	for i := 0; i < 2; i++ { // second pass: one slab, reused
		v := a.Vec(1 << 14)
		for j := range v {
			v[j] = math.NaN()
		}
		a.Reset()
	}
	return &a
}

func bitEqual(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	bitEqualVec(t, what, got.Data, want.Data)
}

func bitEqualVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %x, want %x", what, i, got[i], want[i])
		}
	}
}

// shapes33 is every square size 1…33 plus tall, wide and thin rectangles.
func shapes33() [][2]int {
	var s [][2]int
	for n := 1; n <= 33; n++ {
		s = append(s, [2]int{n, n})
	}
	return append(s, [2]int{22, 3}, [2]int{3, 22}, [2]int{33, 7}, [2]int{7, 33}, [2]int{1, 9}, [2]int{9, 1})
}

func TestMulMatIntoBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range shapes33() {
		a := sparseMat(rng, sh[0], sh[1])
		b := sparseMat(rng, sh[1], sh[0]+2)
		want := refMulMat(a, b)
		bitEqual(t, "MulMat", a.MulMat(b), want)
		dst := dirtyMat(sh[0], sh[0]+2)
		a.MulMatInto(dst, b)
		bitEqual(t, "MulMatInto", dst, want)
	}
	// right operands shaped like the filter's, whose rows MulMatInto walks
	// only between their first and last nonzero; 150 crosses a block of
	// mulSpanRows rows
	for _, n := range []int{1, 2, 7, 33, 150} {
		for _, op := range rightOperands(rng, n) {
			name, b := op.name, op.m
			for _, a := range []*Mat{sparseMat(rng, n, n), sparseMat(rng, 3, n), negMat(rng, n, n)} {
				want := refMulMat(a, b)
				dst := dirtyMat(a.Rows, n)
				a.MulMatInto(dst, b)
				bitEqual(t, fmt.Sprintf("MulMatInto %dx%d · %s %d", a.Rows, n, name, n), dst, want)
			}
		}
	}
}

// rightOperands are n×n right operands of the kinds the filter multiplies
// by: (I−KH)ᵀ, whose rows for the states H does not touch are unit rows;
// the upper-triangular R of a QR; all-zero rows; rows whose one nonzero is
// their first or their last column; and −0 at the edges of a row's range,
// inside it and alone.
func rightOperands(rng *rand.Rand, n int) []struct {
	name string
	m    *Mat
} {
	ikhT := Eye(n)
	for r := 0; r < n; r += 3 { // the states H touches: dense rows
		for c := 0; c < n; c++ {
			ikhT.Set(r, c, rng.NormFloat64())
		}
	}
	_, upper := randMat(rng, n+2, n).QR()
	zeroRows := sparseMat(rng, n, n)
	edges := NewMat(n, n)
	negZero := sparseMat(rng, n, n)
	neg0 := math.Copysign(0, -1)
	for r := 0; r < n; r++ {
		if r%2 == 0 {
			clear(zeroRows.Data[r*n : (r+1)*n])
		}
		if r%2 == 0 {
			edges.Set(r, 0, rng.NormFloat64())
		} else {
			edges.Set(r, n-1, rng.NormFloat64())
		}
		row := negZero.Data[r*n : (r+1)*n]
		switch r % 4 {
		case 0: // −0 at both ends, a nonzero inside
			row[0], row[n-1] = neg0, neg0
		case 1: // −0 just inside the range, at both ends of it
			row[0], row[n-1] = 1.5, -2.5
			if n > 2 {
				row[1], row[n-2] = neg0, neg0
			}
		case 2: // a row of −0 only
			for c := range row {
				row[c] = neg0
			}
		case 3: // +0 and −0 mixed at the edges
			row[0] = 0
			if n > 1 {
				row[1] = neg0
			}
		}
	}
	return []struct {
		name string
		m    *Mat
	}{{"(I-KH)T", ikhT}, {"R", upper}, {"zero rows", zeroRows}, {"edge columns", edges}, {"-0 edges", negZero}}
}

// negMat is sparseMat with every entry negative or −0: its products with
// the right operand's zeros are −0, the sums the skip must not change.
func negMat(rng *rand.Rand, rows, cols int) *Mat {
	m := sparseMat(rng, rows, cols)
	for i, v := range m.Data {
		m.Data[i] = -math.Abs(v)
	}
	return m
}

func TestTIntoBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range shapes33() {
		a := sparseMat(rng, sh[0], sh[1])
		want := refT(a)
		bitEqual(t, "T", a.T(), want)
		dst := dirtyMat(sh[1], sh[0])
		a.TInto(dst)
		bitEqual(t, "TInto", dst, want)

		blk := dirtyMat((sh[0]+1)/2, (sh[1]+1)/2)
		a.BlockInto(blk, sh[0]/2, sh[1]/2)
		bitEqual(t, "BlockInto", blk, a.Block(sh[0]/2, sh[1]/2, blk.Rows, blk.Cols))
		for r := 0; r < blk.Rows; r++ {
			for c := 0; c < blk.Cols; c++ {
				if math.Float64bits(blk.At(r, c)) != math.Float64bits(a.At(sh[0]/2+r, sh[1]/2+c)) {
					t.Fatalf("BlockInto %dx%d: element (%d,%d) is not the source's", sh[0], sh[1], r, c)
				}
			}
		}
	}
	id := dirtyMat(5, 5)
	id.SetIdentity()
	bitEqual(t, "SetIdentity", id, Eye(5))
	if id.At(2, 2) != 1 || id.At(2, 3) != 0 {
		t.Error("SetIdentity did not write the identity")
	}
}

func TestCholeskySolveIntoBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ws := dirtyArena()
	for n := 1; n <= 33; n++ {
		spd := randSPD(rng, n)
		b := sparseMat(rng, n, 1).Data
		want, ok := refCholeskySolve(spd, b)
		if !ok {
			t.Fatalf("n=%d: SPD matrix rejected", n)
		}
		got, ok := spd.CholeskySolve(b)
		if !ok {
			t.Fatalf("n=%d: CholeskySolve rejected an SPD matrix", n)
		}
		bitEqualVec(t, "CholeskySolve", got, want)
		x := dirtyMat(n, 1).Data
		ws.Reset()
		if !spd.CholeskySolveInto(x, b, ws) {
			t.Fatalf("n=%d: CholeskySolveInto rejected an SPD matrix", n)
		}
		bitEqualVec(t, "CholeskySolveInto", x, want)

		wantL, _ := refCholesky(spd)
		l := dirtyMat(n, n)
		if !spd.choleskyInto(l) {
			t.Fatalf("n=%d: CholeskyInto rejected an SPD matrix", n)
		}
		bitEqual(t, "CholeskyInto", l, wantL)

		// every column of the matrix solve is the vector solve of that column
		rhs := sparseMat(rng, n, n+3)
		dst := dirtyMat(n, n+3)
		if !spd.CholeskySolveMatInto(dst, rhs, ws) {
			t.Fatalf("n=%d: CholeskySolveMatInto rejected an SPD matrix", n)
		}
		for c := 0; c < rhs.Cols; c++ {
			wantCol, _ := refCholeskySolve(spd, refT(rhs).Data[c*n:(c+1)*n])
			bitEqualVec(t, "CholeskySolveMatInto column", refT(dst).Data[c*n:(c+1)*n], wantCol)
		}
	}
	indefinite := NewMatFrom(2, 2, []float64{1, 2, 2, 1})
	if indefinite.CholeskySolveInto(make([]float64, 2), []float64{1, 1}, ws) ||
		indefinite.CholeskySolveMatInto(NewMat(2, 2), Eye(2), ws) ||
		indefinite.choleskyInto(NewMat(2, 2)) {
		t.Error("indefinite matrix accepted")
	}
}

func TestQRIntoBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ws := dirtyArena()
	for _, sh := range shapes33() {
		if sh[0] < sh[1] {
			continue
		}
		a := sparseMat(rng, sh[0], sh[1])
		wantQ, wantR := refQR(a)
		q, r := a.QR()
		bitEqual(t, "QR q", q, wantQ)
		bitEqual(t, "QR r", r, wantR)
		q, r = dirtyMat(sh[0], sh[1]), dirtyMat(sh[1], sh[1])
		ws.Reset()
		a.QRInto(q, r, ws)
		bitEqual(t, "QRInto q", q, wantQ)
		bitEqual(t, "QRInto r", r, wantR)
	}
}

func TestNullspaceIntoBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ws := dirtyArena()
	for _, sh := range append(shapes33(), [2]int{4, 3}, [2]int{24, 3}, [2]int{33, 32}) {
		if sh[0] <= sh[1] {
			continue
		}
		a := sparseMat(rng, sh[0], sh[1])
		want := refNullspace(a)
		bitEqual(t, "Nullspace", a.Nullspace(), want)
		dst := dirtyMat(sh[0], sh[0]-sh[1])
		ws.Reset()
		a.NullspaceInto(dst, ws)
		bitEqual(t, "NullspaceInto", dst, want)
	}
	if ns := NewMat(3, 3).Nullspace(); ns.Rows != 3 || ns.Cols != 0 {
		t.Errorf("square matrix: nullspace %dx%d, want 3x0", ns.Rows, ns.Cols)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// TestIntoPanics: a destination that is one of the inputs, or of the wrong
// shape, is a bug in the caller and must not pass silently.
func TestIntoPanics(t *testing.T) {
	var ws Arena
	a, b := Eye(3), Eye(3)
	v := make([]float64, 3)
	mustPanic(t, "MulMatInto dst=m", func() { a.MulMatInto(a, b) })
	mustPanic(t, "MulMatInto dst=n", func() { a.MulMatInto(b, b) })
	mustPanic(t, "TInto dst=m", func() { a.TInto(a) })
	mustPanic(t, "BlockInto dst=m", func() { a.BlockInto(a, 0, 0) })
	mustPanic(t, "CholeskyInto l=m", func() { a.choleskyInto(a) })
	mustPanic(t, "CholeskySolveInto x=b", func() { a.CholeskySolveInto(v, v, &ws) })
	mustPanic(t, "CholeskySolveMatInto dst=b", func() { a.CholeskySolveMatInto(b, b, &ws) })
	mustPanic(t, "QRInto q=m", func() { a.QRInto(a, b, &ws) })
	tall := NewMat(3, 2)
	mustPanic(t, "NullspaceInto dst=m", func() { tall.NullspaceInto(NewMatFrom(3, 1, tall.Data[:3]), &ws) })

	mustPanic(t, "MulMatInto shape", func() { a.MulMatInto(NewMat(3, 2), b) })
	mustPanic(t, "TInto shape", func() { NewMat(2, 3).TInto(NewMat(2, 3)) })
	mustPanic(t, "BlockInto range", func() { a.BlockInto(NewMat(2, 2), 2, 2) })
	mustPanic(t, "SetIdentity shape", func() { NewMat(2, 3).SetIdentity() })
	mustPanic(t, "CholeskyInto shape", func() { a.choleskyInto(NewMat(2, 2)) })
	mustPanic(t, "CholeskySolveInto shape", func() { a.CholeskySolveInto(make([]float64, 2), v, &ws) })
	mustPanic(t, "CholeskySolveMatInto shape", func() { a.CholeskySolveMatInto(NewMat(3, 2), b, &ws) })
	mustPanic(t, "QRInto shape", func() { a.QRInto(NewMat(3, 3), NewMat(2, 2), &ws) })
	mustPanic(t, "QRInto wide", func() { NewMat(2, 3).QRInto(NewMat(2, 3), NewMat(3, 3), &ws) })
	mustPanic(t, "NullspaceInto shape", func() { NewMat(4, 3).NullspaceInto(NewMat(4, 2), &ws) })
	mustPanic(t, "NullspaceInto square", func() { a.NullspaceInto(NewMat(3, 0), &ws) })
	mustPanic(t, "Arena.Mat shape", func() { ws.Mat(-1, 2) })
	mustPanic(t, "Arena.Vec length", func() { ws.Vec(-1) })
}

// TestArenaStableAcrossGrowth: growth starts a new slab and leaves the old
// one alone, so a matrix handed out earlier keeps its address and contents
// while hundreds more are taken, headers included.
func TestArenaStableAcrossGrowth(t *testing.T) {
	var a Arena
	first := a.Mat(3, 3)
	data0 := &first.Data[0]
	for i := range first.Data {
		first.Data[i] = float64(i + 1)
	}
	var all []*Mat
	for i := 0; i < 300; i++ {
		m := a.Mat(1+i%7, 1+i%5)
		for j := range m.Data {
			m.Data[j] = float64(i)
		}
		all = append(all, m)
	}
	if &first.Data[0] != data0 || first.Rows != 3 || first.Cols != 3 {
		t.Fatal("the first matrix moved")
	}
	for i, v := range first.Data {
		if v != float64(i+1) {
			t.Fatalf("the first matrix was overwritten: element %d is %v", i, v)
		}
	}
	for i, m := range all {
		if m.Rows != 1+i%7 || m.Cols != 1+i%5 || len(m.Data) != m.Rows*m.Cols {
			t.Fatalf("matrix %d: header overwritten: %dx%d with %d values", i, m.Rows, m.Cols, len(m.Data))
		}
		for _, v := range m.Data {
			if v != float64(i) {
				t.Fatalf("matrix %d overwritten: holds %v", i, v)
			}
		}
	}
	// a vector's capacity stops at its length: appending cannot reach the
	// next hand-out
	v := a.Vec(4)
	w := a.Vec(4)
	_ = append(v, 99)
	if w[0] != 0 {
		t.Error("append to one vector wrote into the next")
	}
}

// TestArenaResetHandsOutZeros: what comes back after a Reset is the memory
// that was just dirtied, and it must be zero again.
func TestArenaResetHandsOutZeros(t *testing.T) {
	var a Arena
	for cycle := 0; cycle < 3; cycle++ {
		m := a.Mat(40, 40)
		v := a.Vec(100)
		for _, x := range append(m.Data[:len(m.Data):len(m.Data)], v...) {
			if x != 0 || math.Signbit(x) {
				t.Fatalf("cycle %d: arena handed out %v", cycle, x)
			}
		}
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
		for i := range v {
			v[i] = -1
		}
		a.Reset()
	}
}

// TestZeroAllocArenaCycle: once a cycle has run twice (the first run grows
// slabs, the Reset after it sizes one slab to the whole cycle), running it
// again allocates nothing.
func TestZeroAllocArenaCycle(t *testing.T) {
	var a Arena
	rng := rand.New(rand.NewSource(26))
	spd, rhs := randSPD(rng, 12), randMat(rng, 12, 20)
	tall := randMat(rng, 22, 3)
	testutil.MustZeroAllocs(t, "Arena cycle", func() {
		a.Reset()
		x := a.Mat(12, 20)
		spd.CholeskySolveMatInto(x, rhs, &a)
		xT := a.Mat(20, 12)
		x.TInto(xT)
		p := a.Mat(12, 12)
		x.MulMatInto(p, xT)
		ns := a.Mat(22, 19)
		tall.NullspaceInto(ns, &a)
		q, r := a.Mat(22, 3), a.Mat(3, 3)
		tall.QRInto(q, r, &a)
	})
}

// BenchmarkMulMatInto is the filter's largest product: the Joseph-form
// (I-KH)·P at the 120-dimensional state of a full window.
func BenchmarkMulMatInto(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	m, n, dst := randMat(rng, 120, 120), randMat(rng, 120, 120), NewMat(120, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulMatInto(dst, n)
	}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

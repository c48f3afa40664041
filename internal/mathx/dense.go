package mathx

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix of arbitrary size. It is the workhorse
// type for the EKF in the VIO component (covariance, Jacobians) and for the
// Gauss-Newton solvers in triangulation and scene reconstruction.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix of the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	m.SetIdentity()
	return m
}

// SetIdentity overwrites the square matrix m with the identity.
func (m *Mat) SetIdentity() {
	if m.Rows != m.Cols {
		panic("mathx: SetIdentity requires square matrix")
	}
	clear(m.Data)
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// mustNotAlias panics when a destination is an input's own storage (the
// same first element; partial overlaps are not looked for): every *Into
// kernel reads its inputs while it writes dst.
func mustNotAlias(dst, src []float64) {
	if len(dst) > 0 && len(src) > 0 && &dst[0] == &src[0] {
		panic("mathx: dst aliases an input")
	}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// TInto writes the transpose of m into dst (Cols×Rows).
func (m *Mat) TInto(dst *Mat) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("mathx: transpose shape mismatch %dx%d -> %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	mustNotAlias(dst.Data, m.Data)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			dst.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
}

// mulSpanRows is how many rows of the right operand MulMatInto takes at a
// time: their nonzero column ranges fit a fixed array on the stack, so a
// product of any size allocates nothing.
const mulSpanRows = 128

// MulMatInto writes m * n into dst (m.Rows×n.Cols), allocating nothing.
//
// It skips the zeros of both operands: an entry of m that is zero, and the
// columns of a row of n before its first and after its last nonzero (the
// filter's unit rows of (I−KH)ᵀ, the upper-triangular R of its QR). This is
// exact for finite operands: every element of dst is summed in ascending k
// from +0, and such a sum is never −0, so adding a ±0 product changes
// nothing.
func (m *Mat) MulMatInto(dst, n *Mat) {
	if m.Cols != n.Rows || dst.Rows != m.Rows || dst.Cols != n.Cols {
		panic(fmt.Sprintf("mathx: mul shape mismatch %dx%d * %dx%d -> %dx%d",
			m.Rows, m.Cols, n.Rows, n.Cols, dst.Rows, dst.Cols))
	}
	mustNotAlias(dst.Data, m.Data)
	mustNotAlias(dst.Data, n.Data)
	clear(dst.Data)
	var span [mulSpanRows][2]int32 // [first, last+1) nonzero column per row of n
	// rows of n in blocks, each block over every row of m: each element of
	// dst still receives its products in ascending k
	for k0 := 0; k0 < n.Rows; k0 += mulSpanRows {
		k1 := min(k0+mulSpanRows, n.Rows)
		for k := k0; k < k1; k++ {
			nrow := n.Data[k*n.Cols : (k+1)*n.Cols]
			lo, hi := 0, len(nrow)
			for lo < hi && nrow[lo] == 0 {
				lo++
			}
			for hi > lo && nrow[hi-1] == 0 {
				hi--
			}
			span[k-k0] = [2]int32{int32(lo), int32(hi)}
		}
		for r := 0; r < m.Rows; r++ {
			mrow := m.Data[r*m.Cols+k0 : r*m.Cols+k1]
			orow := dst.Data[r*n.Cols : (r+1)*n.Cols]
			for j, mv := range mrow {
				if mv == 0 {
					continue
				}
				lo, hi := int(span[j][0]), int(span[j][1])
				nrow := n.Data[(k0+j)*n.Cols+lo : (k0+j)*n.Cols+hi]
				o := orow[lo:hi]
				o = o[:len(nrow)]
				for c, nv := range nrow {
					o[c] += mv * nv
				}
			}
		}
	}
}

// MulVecNInto writes m * v into dst (length Rows), allocating nothing.
func (m *Mat) MulVecNInto(dst, v []float64) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: mulvec shape mismatch %dx%d * %d -> %d", m.Rows, m.Cols, len(v), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		s := 0.0
		for c, rv := range row {
			s += rv * v[c]
		}
		dst[r] = s
	}
}

// AddInPlace adds n into m element-wise.
func (m *Mat) AddInPlace(n *Mat) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("mathx: add shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Mat) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// SetBlock copies src into m with its top-left corner at (r0, c0).
func (m *Mat) SetBlock(r0, c0 int, src *Mat) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		panic("mathx: SetBlock out of range")
	}
	for r := 0; r < src.Rows; r++ {
		copy(m.Data[(r0+r)*m.Cols+c0:(r0+r)*m.Cols+c0+src.Cols],
			src.Data[r*src.Cols:(r+1)*src.Cols])
	}
}

// BlockInto copies the sub-matrix of dst's shape at (r0, c0) into dst.
func (m *Mat) BlockInto(dst *Mat, r0, c0 int) {
	rows, cols := dst.Rows, dst.Cols
	if r0+rows > m.Rows || c0+cols > m.Cols || r0 < 0 || c0 < 0 {
		panic("mathx: Block out of range")
	}
	mustNotAlias(dst.Data, m.Data)
	for r := 0; r < rows; r++ {
		copy(dst.Data[r*cols:(r+1)*cols],
			m.Data[(r0+r)*m.Cols+c0:(r0+r)*m.Cols+c0+cols])
	}
}

// Symmetrize averages m with its transpose in place (m must be square);
// used to keep EKF covariances numerically symmetric.
func (m *Mat) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mathx: Symmetrize requires square matrix")
	}
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			v := 0.5 * (m.Data[r*n+c] + m.Data[c*n+r])
			m.Data[r*n+c] = v
			m.Data[c*n+r] = v
		}
	}
}

// choleskyInto writes the lower-triangular factor L with m = L Lᵀ into l
// (upper triangle zero). Returns false, with l half written, if m is not
// (numerically) positive definite.
func (m *Mat) choleskyInto(l *Mat) bool {
	if m.Rows != m.Cols || l.Rows != m.Rows || l.Cols != m.Cols {
		panic("mathx: Cholesky requires square matrices of one size")
	}
	mustNotAlias(l.Data, m.Data)
	clear(l.Data)
	n := m.Rows
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return false
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
	return true
}

// CholeskySolve solves m x = b via Cholesky factorization. m must be
// symmetric positive definite.
func (m *Mat) CholeskySolve(b []float64) ([]float64, bool) {
	x := make([]float64, m.Rows)
	var ws Arena
	if !m.CholeskySolveInto(x, b, &ws) {
		return nil, false
	}
	return x, true
}

// CholeskySolveInto solves m x = b into x, taking the factor and its
// scratch from ws. x may not alias b.
func (m *Mat) CholeskySolveInto(x, b []float64, ws *Arena) bool {
	if len(x) != m.Rows || len(b) != m.Rows {
		panic("mathx: CholeskySolve shape mismatch")
	}
	mustNotAlias(x, b)
	l := ws.Mat(m.Rows, m.Cols)
	if !m.choleskyInto(l) {
		return false
	}
	choleskySubst(l, b, ws.Vec(m.Rows), x)
	return true
}

// choleskySubst solves L Lᵀ x = b for one right-hand side by forward then
// back substitution; y is scratch of the same length as x.
func choleskySubst(l *Mat, b, y, x []float64) {
	n := l.Rows
	// forward: L y = b
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// backward: Lᵀ x = y
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// CholeskySolveMatInto solves m X = B into dst (B's shape), taking the
// factor and the column scratch from ws.
func (m *Mat) CholeskySolveMatInto(dst, b *Mat, ws *Arena) bool {
	if m.Rows != b.Rows || dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic("mathx: CholeskySolveMat shape mismatch")
	}
	mustNotAlias(dst.Data, b.Data)
	mustNotAlias(dst.Data, m.Data)
	l := ws.Mat(m.Rows, m.Cols)
	if !m.choleskyInto(l) {
		return false
	}
	n := b.Rows
	col, y, x := ws.Vec(n), ws.Vec(n), ws.Vec(n)
	for c := 0; c < b.Cols; c++ {
		for r := 0; r < n; r++ {
			col[r] = b.At(r, c)
		}
		choleskySubst(l, col, y, x)
		for r := 0; r < n; r++ {
			dst.Set(r, c, x[r])
		}
	}
	return true
}

// QRInto writes the thin QR decomposition of m into q (rows×cols) and r
// (cols×cols), taking the working copy and the reflectors from ws.
func (m *Mat) QRInto(q, r *Mat, ws *Arena) {
	rows, cols := m.Rows, m.Cols
	if rows < cols {
		panic("mathx: QR requires rows >= cols")
	}
	if q.Rows != rows || q.Cols != cols || r.Rows != cols || r.Cols != cols {
		panic("mathx: QR shape mismatch")
	}
	mustNotAlias(q.Data, m.Data)
	mustNotAlias(r.Data, m.Data)
	a, vs, vnorm2 := m.householder(ws)
	clear(r.Data)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	// Q = H₀ H₁ … H_{k-1} applied to the first `cols` columns of I.
	reflectUnitColumns(q, 0, vs, vnorm2, ws)
}

// householder reduces a working copy of m (rows >= cols) to upper
// triangular form with one reflection H_k = I - 2 v vᵀ / (vᵀv) per column.
// It returns the reduced copy, the reflectors (row k of vs is v_k, zero
// above its diagonal) and their squared norms; vnorm2[k] == 0 marks a
// column that needed no reflection. Everything comes from ws.
func (m *Mat) householder(ws *Arena) (a, vs *Mat, vnorm2 []float64) {
	rows, cols := m.Rows, m.Cols
	a = ws.Mat(rows, cols)
	copy(a.Data, m.Data)
	vs = ws.Mat(cols, rows)
	vnorm2 = ws.Vec(cols)
	for k := 0; k < cols; k++ {
		// norm of column k below diagonal
		norm := 0.0
		for i := k; i < rows; i++ {
			norm += a.At(i, k) * a.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := -norm
		if a.At(k, k) < 0 {
			alpha = norm
		}
		v := vs.Data[k*rows : (k+1)*rows]
		v[k] = a.At(k, k) - alpha
		for i := k + 1; i < rows; i++ {
			v[i] = a.At(i, k)
		}
		vn2 := 0.0
		for i := k; i < rows; i++ {
			vn2 += v[i] * v[i]
		}
		if vn2 < 1e-300 {
			continue
		}
		// apply H to the remaining columns
		for c := k; c < cols; c++ {
			dot := 0.0
			for i := k; i < rows; i++ {
				dot += v[i] * a.At(i, c)
			}
			f := 2 * dot / vn2
			for i := k; i < rows; i++ {
				a.Set(i, c, a.At(i, c)-f*v[i])
			}
		}
		vnorm2[k] = vn2
	}
	return a, vs, vnorm2
}

// reflectUnitColumns writes H₀ H₁ … e_{first+c} into column c of dst, for
// every column of dst: columns first… of the full Q of householder.
func reflectUnitColumns(dst *Mat, first int, vs *Mat, vnorm2 []float64, ws *Arena) {
	rows := vs.Cols
	e := ws.Vec(rows)
	for c := 0; c < dst.Cols; c++ {
		clear(e)
		e[first+c] = 1
		for k := len(vnorm2) - 1; k >= 0; k-- {
			if vnorm2[k] == 0 {
				continue
			}
			v := vs.Data[k*rows : (k+1)*rows]
			dot := 0.0
			for i := k; i < rows; i++ {
				dot += v[i] * e[i]
			}
			f := 2 * dot / vnorm2[k]
			for i := k; i < rows; i++ {
				e[i] -= f * v[i]
			}
		}
		for i := 0; i < rows; i++ {
			dst.Set(i, c, e[i])
		}
	}
}

// NullspaceInto writes the left-nullspace basis of m (rows > cols) into dst
// (rows×(rows-cols)): the trailing columns of the full Householder Q. The
// working copy and the reflectors come from ws.
func (m *Mat) NullspaceInto(dst *Mat, ws *Arena) {
	if m.Rows <= m.Cols || dst.Rows != m.Rows || dst.Cols != m.Rows-m.Cols {
		panic("mathx: Nullspace shape mismatch")
	}
	mustNotAlias(dst.Data, m.Data)
	_, vs, vnorm2 := m.householder(ws)
	reflectUnitColumns(dst, m.Cols, vs, vnorm2, ws)
}

package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMul is MulMatInto's definition as a plain triple loop: element
// (r, c) sums m[r][k]·n[k][c] in ascending k from +0, leaving out the
// terms whose m entry is zero and those whose column lies outside row k
// of n's first-to-last nonzero range. Those are the terms MulMatInto does
// not form, so with ±Inf or NaN operands too the two agree bit for bit.
func naiveMul(m, n *Mat) *Mat {
	out := NewMat(m.Rows, n.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			mv := m.At(r, k)
			if mv == 0 {
				continue
			}
			lo, hi := 0, n.Cols
			for lo < hi && n.At(k, lo) == 0 {
				lo++
			}
			for hi > lo && n.At(k, hi-1) == 0 {
				hi--
			}
			for c := lo; c < hi; c++ {
				out.Data[r*n.Cols+c] += mv * n.At(k, c)
			}
		}
	}
	return out
}

// specials are the entries whose products the zero skips must neither
// form nor drop: signed zeros, NaN and the infinities.
var specials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// mulCase is one left·right pair of TestMulMatIntoMatchesNaive.
type mulCase struct {
	name string
	m, n *Mat
}

// mulCases builds the pairs for a left operand of the given row count
// over an inner dimension k and cols output columns.
func mulCases(rng *rand.Rand, rows, k, cols int) []mulCase {
	var cs []mulCase
	add := func(name string, m, n *Mat) { cs = append(cs, mulCase{name, m, n}) }
	add("dense", randMat(rng, rows, k), randMat(rng, k, cols))
	add("sparse", sparseMat(rng, rows, k), sparseMat(rng, k, cols))

	zeroRows := randMat(rng, rows, k) // every other row of m all zero
	for r := 0; r < rows; r += 2 {
		clear(zeroRows.Data[r*k : (r+1)*k])
	}
	add("zero rows of m", zeroRows, randMat(rng, k, cols))

	zeroCols := randMat(rng, rows, k) // columns of m, and so rows of n, unused
	nZero := randMat(rng, k, cols)
	for c := 0; c < k; c += 3 {
		for r := 0; r < rows; r++ {
			zeroCols.Set(r, c, 0)
		}
		nZero.Set(c, (c*5)%cols, 0)
	}
	for r := 0; r < k; r++ {
		nZero.Set(r, cols-1, 0) // a zero column of n
	}
	add("zero columns", zeroCols, nZero)

	// (I−KH)ᵀ: unit rows except the states H touches
	ikhT := NewMat(k, cols)
	for r := 0; r < k; r++ {
		if r%3 == 0 {
			for c := 0; c < cols; c++ {
				ikhT.Set(r, c, rng.NormFloat64())
			}
		} else if r < cols {
			ikhT.Set(r, r, 1)
		}
	}
	add("(I-KH)T", randMat(rng, rows, k), ikhT)

	// each special value sprinkled into either operand, and both
	for i, v := range specials {
		mS, nS := sparseMat(rng, rows, k), sparseMat(rng, k, cols)
		for j := 0; j < 1+len(mS.Data)/7; j++ {
			mS.Data[rng.Intn(len(mS.Data))] = v
		}
		for j := 0; j < 1+len(nS.Data)/7; j++ {
			nS.Data[rng.Intn(len(nS.Data))] = v
		}
		mD, nD := sparseMat(rng, rows, k), sparseMat(rng, k, cols)
		add(fmt.Sprintf("special %d in m", i), mS, nD)
		add(fmt.Sprintf("special %d in n", i), mD, nS)
		add(fmt.Sprintf("special %d in both", i), mS, nS)
	}
	mixed := func(r, c int) *Mat {
		x := sparseMat(rng, r, c)
		for j := range x.Data {
			if rng.Intn(3) == 0 {
				x.Data[j] = specials[rng.Intn(len(specials))]
			}
		}
		return x
	}
	add("mixed specials", mixed(rows, k), mixed(k, cols))
	return cs
}

// TestMulMatIntoMatchesNaive holds the register-blocked product to the
// one-row definition for every row count the four-row blocks leave a
// different tail of (1–9) and for the filter's full-window size, over
// dense, sparse, zero-row, zero-column and (I−KH)ᵀ operands and with ±0,
// NaN and ±Inf in either operand.
func TestMulMatIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 120}
	for _, rows := range rowCounts {
		for _, kc := range [][2]int{{rows, rows}, {7, 5}, {130, 9}} {
			for _, c := range mulCases(rng, rows, kc[0], kc[1]) {
				dst := dirtyMat(rows, kc[1])
				c.m.MulMatInto(dst, c.n)
				bitEqual(t, fmt.Sprintf("%d×%d·%d×%d %s", rows, kc[0], kc[0], kc[1], c.name), dst, naiveMul(c.m, c.n))
			}
		}
	}
}

// FuzzMulMatInto decodes the input into two matrices — a shape byte each
// for the rows, the inner dimension and the columns, then one byte per
// entry picking a special value or a small integer — and holds
// MulMatInto to naiveMul bit for bit.
func FuzzMulMatInto(f *testing.F) {
	f.Add([]byte{5, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Add([]byte{4, 4, 4, 0, 1, 2, 3, 4, 0, 0, 0, 0, 9, 9, 9, 9, 2, 3, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, k, cols := 1+int(data[0])%9, 1+int(data[1])%9, 1+int(data[2])%9
		data = data[3:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			if int(b) < len(specials) {
				return specials[b]
			}
			return float64(int(b)-128) / 8
		}
		m, n := NewMat(rows, k), NewMat(k, cols)
		for i := range m.Data {
			m.Data[i] = next()
		}
		for i := range n.Data {
			n.Data[i] = next()
		}
		dst := dirtyMat(rows, cols)
		m.MulMatInto(dst, n)
		bitEqual(t, "MulMatInto", dst, naiveMul(m, n))
	})
}

package quality

import (
	"math"
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/parallel"
)

// FuzzSSIMWindow builds small image pairs from arbitrary bytes and checks
// SSIM's contract: no panic, a finite score ≤ 1 (+ slack for the stabilizing
// constants), self-similarity exactly 1, and bitwise serial/parallel
// equality — the determinism property under fuzzed inputs.
func FuzzSSIMWindow(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{0, 1, 2, 3})
	f.Add(uint8(16), uint8(4), []byte("structural similarity"))
	f.Add(uint8(1), uint8(1), []byte{255})
	f.Add(uint8(3), uint8(31), []byte{})
	f.Fuzz(func(t *testing.T, wb, hb uint8, data []byte) {
		w := int(wb)%32 + 1
		h := int(hb)%32 + 1
		a := imgproc.NewGray(w, h)
		b := imgproc.NewGray(w, h)
		for i := range a.Pix {
			var va, vb byte
			if len(data) > 0 {
				va = data[(2*i)%len(data)]
				vb = data[(2*i+1)%len(data)]
			}
			a.Pix[i] = float32(va) / 255
			b.Pix[i] = float32(vb) / 255
		}
		s := SSIMPool(nil, a, b)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("SSIMPool(nil, %dx%d) = %v, want finite", w, h, s)
		}
		// float32 moment rounding can push per-pixel scores marginally past
		// the exact-arithmetic bound of |s| <= 1
		if s > 1.001 || s < -1.001 {
			t.Fatalf("SSIMPool(nil, %dx%d) = %v outside [-1, 1]", w, h, s)
		}
		if self := SSIMPool(nil, a, a); self != 1 {
			t.Fatalf("SSIMPool(nil, a, a) = %v, want exactly 1", self)
		}
		for _, workers := range []int{2, 7} {
			par := SSIMPool(parallel.New(workers), a, b)
			if math.Float64bits(par) != math.Float64bits(s) {
				t.Fatalf("workers=%d: SSIM %v differs bitwise from serial %v", workers, par, s)
			}
		}
	})
}

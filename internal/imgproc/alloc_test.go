package imgproc

import (
	"testing"

	"illixr/internal/testutil"
)

func allocProbeGray(w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = float32(i%41) / 41
	}
	return g
}

// TestZeroAllocKernels pins each recycled image kernel at zero
// steady-state allocations on the serial path: outputs come from the
// pools and are returned every iteration, and the Gaussian weights come
// from the sigma-keyed cache.
func TestZeroAllocKernels(t *testing.T) {
	g := allocProbeGray(128, 96)
	t.Run("GaussianBlur", func(t *testing.T) {
		testutil.MustZeroAllocs(t, "GaussianBlurPool", func() {
			PutGray(GaussianBlurPool(nil, g, 1.4))
		})
	})
	t.Run("Sobel", func(t *testing.T) {
		testutil.MustZeroAllocs(t, "SobelPool", func() {
			gx, gy := SobelPool(nil, g)
			PutGray(gx)
			PutGray(gy)
		})
	})
	t.Run("Downsample2", func(t *testing.T) {
		testutil.MustZeroAllocs(t, "Downsample2Pool", func() {
			PutGray(downsample2Pool(nil, g))
		})
	})
	t.Run("Pyramid", func(t *testing.T) {
		testutil.MustZeroAllocs(t, "BuildPyramidPool", func() {
			ReleasePyramid(BuildPyramidPool(nil, g, 3))
		})
	})
}

package imgproc

import (
	"math"
	"testing"

	"illixr/internal/parallel"
	"illixr/internal/testutil"
)

func patternGray(w, h int) *Gray {
	g := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Pix[y*w+x] = float32(0.5 + 0.5*math.Sin(0.17*float64(x)-0.09*float64(y)))
		}
	}
	return g
}

func sampleGray(gs ...*Gray) []float64 {
	var out []float64
	for _, g := range gs {
		stride := len(g.Pix)/128 + 1
		for i := 0; i < len(g.Pix); i += stride {
			out = append(out, float64(g.Pix[i]))
		}
		sum := 0.0
		for _, v := range g.Pix {
			sum += float64(v)
		}
		out = append(out, sum)
	}
	return out
}

func TestGoldenFilters(t *testing.T) {
	g := patternGray(96, 64)
	blur := GaussianBlurPool(nil, g, 1.5)
	gx, gy := SobelPool(nil, g)
	down := downsample2Pool(nil, g)
	testutil.CheckGolden(t, "testdata/filters_96x64.golden", sampleGray(blur, gx, gy, down), 0)
}

func TestDeterminismFilters(t *testing.T) {
	g := patternGray(96, 64)
	refBlur := GaussianBlurPool(nil, g, 1.5)
	refPyr := BuildPyramidPool(nil, g, 3)
	for _, workers := range []int{2, 4, 7} {
		pool := parallel.New(workers)
		blur := GaussianBlurPool(pool, g, 1.5)
		for i := range blur.Pix {
			if math.Float32bits(blur.Pix[i]) != math.Float32bits(refBlur.Pix[i]) {
				t.Fatalf("workers=%d: blur pixel %d differs", workers, i)
			}
		}
		pyr := BuildPyramidPool(pool, g, 3)
		for l := range pyr.Levels {
			for i := range pyr.Levels[l].Pix {
				if math.Float32bits(pyr.Levels[l].Pix[i]) != math.Float32bits(refPyr.Levels[l].Pix[i]) {
					t.Fatalf("workers=%d: pyramid level %d pixel %d differs", workers, l, i)
				}
			}
		}
	}
}

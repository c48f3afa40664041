package quality

import (
	"math"
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/parallel"
	"illixr/internal/testutil"
)

func testGrayPair(w, h int) (*imgproc.Gray, *imgproc.Gray) {
	a := imgproc.NewGray(w, h)
	b := imgproc.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5 + 0.5*math.Sin(0.13*float64(x)+0.21*float64(y))
			a.Pix[y*w+x] = float32(v)
			b.Pix[y*w+x] = float32(v * 0.95)
		}
	}
	return a, b
}

func testRGBPair(w, h int) (*imgproc.RGB, *imgproc.RGB) {
	a := imgproc.NewRGB(w, h)
	b := imgproc.NewRGB(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w)
			fy := float64(y) / float64(h)
			r := float32(0.5 + 0.5*math.Sin(7*fx+3*fy))
			g := float32(fx * fy)
			bl := float32(0.5 + 0.5*math.Cos(5*fy))
			a.Set(x, y, r, g, bl)
			b.Set(x, y, r*0.97, g*0.97+0.01, bl)
		}
	}
	return a, b
}

func TestGoldenSSIMAndFLIP(t *testing.T) {
	ga, gb := testGrayPair(96, 64)
	ra, rb := testRGBPair(96, 64)
	vals := []float64{
		SSIMPool(nil, ga, gb),
		SSIMPool(nil, ga, ga),
		flip(ra, rb),
		OneMinusFLIP(ra, rb),
	}
	testutil.CheckGolden(t, "testdata/ssim_flip_96x64.golden", vals, 0)
}

func TestDeterminismSSIM(t *testing.T) {
	a, b := testGrayPair(96, 64)
	ref := SSIMPool(nil, a, b)
	for _, workers := range []int{2, 4, 7} {
		got := SSIMPool(parallel.New(workers), a, b)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d: SSIM %v differs from serial %v", workers, got, ref)
		}
	}
}

func TestDeterminismFLIP(t *testing.T) {
	a, b := testRGBPair(96, 64)
	ref := FLIPPool(nil, a, b)
	for _, workers := range []int{2, 4, 7} {
		got := FLIPPool(parallel.New(workers), a, b)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d: FLIP %v differs from serial %v", workers, got, ref)
		}
	}
}

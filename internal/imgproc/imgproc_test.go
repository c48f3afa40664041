package imgproc

import (
	"math"
	"math/rand"
	"testing"
)

func TestGrayAtClamps(t *testing.T) {
	g := NewGray(4, 3)
	g.Set(0, 0, 1)
	g.Set(3, 2, 2)
	if g.At(-5, -5) != 1 {
		t.Error("negative clamp")
	}
	if g.At(100, 100) != 2 {
		t.Error("positive clamp")
	}
}

func TestGraySetOutOfRangeIgnored(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(-1, 0, 9)
	g.Set(0, 5, 9)
	for _, v := range g.Pix {
		if v != 0 {
			t.Error("out-of-range write leaked")
		}
	}
}

func TestBilinearInterpolation(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 0)
	g.Set(1, 0, 1)
	g.Set(0, 1, 2)
	g.Set(1, 1, 3)
	if v := g.bilinear(0.5, 0.5); math.Abs(float64(v)-1.5) > 1e-6 {
		t.Errorf("center = %v", v)
	}
	if v := g.bilinear(0, 0); v != 0 {
		t.Errorf("corner = %v", v)
	}
	if v := g.bilinear(1, 1); v != 3 {
		t.Errorf("corner = %v", v)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		k := computeGaussianKernel(sigma)
		s := 0.0
		for _, v := range k {
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("sigma %v: sum = %v", sigma, s)
		}
		if len(k)%2 != 1 {
			t.Errorf("sigma %v: even kernel", sigma)
		}
	}
	if k := computeGaussianKernel(0); len(k) != 1 || k[0] != 1 {
		t.Error("sigma=0 should be identity")
	}
}

func TestGaussianBlurPreservesConstant(t *testing.T) {
	g := NewGray(16, 16)
	for i := range g.Pix {
		g.Pix[i] = 0.7
	}
	b := GaussianBlurPool(nil, g, 1.5)
	for i, v := range b.Pix {
		if math.Abs(float64(v)-0.7) > 1e-5 {
			t.Fatalf("pixel %d = %v", i, v)
		}
	}
}

func TestGaussianBlurReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGray(32, 32)
	for i := range g.Pix {
		g.Pix[i] = float32(rng.Float64())
	}
	b := GaussianBlurPool(nil, g, 1.0)
	variance := func(im *Gray) float64 {
		m := im.Mean()
		s := 0.0
		for _, v := range im.Pix {
			d := float64(v) - m
			s += d * d
		}
		return s / float64(len(im.Pix))
	}
	if variance(b) >= variance(g) {
		t.Error("blur did not reduce variance")
	}
}

func TestSobelOnRamp(t *testing.T) {
	// Horizontal ramp: gx == slope, gy == 0 in the interior.
	g := NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			g.Set(x, y, float32(x)*0.1)
		}
	}
	gx, gy := SobelPool(nil, g)
	for y := 1; y < 7; y++ {
		for x := 1; x < 7; x++ {
			if math.Abs(float64(gx.At(x, y))-0.1) > 1e-5 {
				t.Fatalf("gx(%d,%d) = %v", x, y, gx.At(x, y))
			}
			if math.Abs(float64(gy.At(x, y))) > 1e-5 {
				t.Fatalf("gy(%d,%d) = %v", x, y, gy.At(x, y))
			}
		}
	}
}

func TestBilateralPreservesEdge(t *testing.T) {
	// A step edge should survive bilateral filtering but not Gaussian.
	g := NewGray(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			g.Set(x, y, 1)
		}
	}
	bi := Bilateral(g, 2, 0.1)
	ga := GaussianBlurPool(nil, g, 2)
	// measure edge sharpness at the transition
	biStep := float64(bi.At(9, 8) - bi.At(6, 8))
	gaStep := float64(ga.At(9, 8) - ga.At(6, 8))
	if biStep < gaStep {
		t.Errorf("bilateral %v less sharp than gaussian %v", biStep, gaStep)
	}
	if biStep < 0.9 {
		t.Errorf("bilateral destroyed edge: step %v", biStep)
	}
}

func TestDownsample2(t *testing.T) {
	g := NewGray(4, 4)
	for i := range g.Pix {
		g.Pix[i] = float32(i)
	}
	d := downsample2Pool(nil, g)
	if d.W != 2 || d.H != 2 {
		t.Fatalf("size %dx%d", d.W, d.H)
	}
	// top-left block: 0,1,4,5 -> 2.5
	if math.Abs(float64(d.At(0, 0))-2.5) > 1e-6 {
		t.Errorf("d(0,0) = %v", d.At(0, 0))
	}
}

func TestBuildPyramid(t *testing.T) {
	g := NewGray(64, 48)
	p := BuildPyramid(g, 4)
	if len(p.Levels) != 4 {
		t.Fatalf("levels = %d", len(p.Levels))
	}
	if p.Levels[3].W != 8 || p.Levels[3].H != 6 {
		t.Errorf("coarsest %dx%d", p.Levels[3].W, p.Levels[3].H)
	}
	// tiny image: pyramid must not recurse to nothing
	tiny := BuildPyramid(NewGray(10, 10), 5)
	if len(tiny.Levels) == 0 {
		t.Error("empty pyramid")
	}
}

// synthCorner draws a bright square; its corners are FAST corners.
func synthCorner() *Gray {
	g := NewGray(40, 40)
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			g.Set(x, y, 1)
		}
	}
	return g
}

func TestFAST9FindsSquareCorners(t *testing.T) {
	g := synthCorner()
	corners := FAST9(g, 0.3, 0)
	if len(corners) == 0 {
		t.Fatal("no corners found")
	}
	// All detections should be near the 4 square corners.
	want := [][2]int{{10, 10}, {29, 10}, {10, 29}, {29, 29}}
	for _, c := range corners {
		close := false
		for _, w := range want {
			if abs(c.X-w[0]) <= 2 && abs(c.Y-w[1]) <= 2 {
				close = true
			}
		}
		if !close {
			t.Errorf("spurious corner at (%d,%d)", c.X, c.Y)
		}
	}
}

func TestFAST9FlatImageNoCorners(t *testing.T) {
	g := NewGray(32, 32)
	if got := FAST9(g, 0.1, 0); len(got) != 0 {
		t.Errorf("found %d corners in flat image", len(got))
	}
}

func TestFAST9MaxCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGray(64, 64)
	for i := range g.Pix {
		g.Pix[i] = float32(rng.Float64())
	}
	all := FAST9(g, 0.05, 0)
	if len(all) < 5 {
		t.Skip("noise image produced too few corners")
	}
	limited := FAST9(g, 0.05, 3)
	if len(limited) != 3 {
		t.Errorf("maxCorners not honored: %d", len(limited))
	}
	// strongest first
	if limited[0].Score < limited[2].Score {
		t.Error("not sorted by score")
	}
}

func TestGridFilter(t *testing.T) {
	corners := []Corner{
		{X: 1, Y: 1, Score: 1},
		{X: 2, Y: 2, Score: 5}, // same cell, stronger
		{X: 20, Y: 20, Score: 2},
	}
	out := GridFilter(corners, 32, 32, 10)
	if len(out) != 2 {
		t.Fatalf("got %d corners", len(out))
	}
	if out[0].Score != 5 {
		t.Error("strongest per cell not kept")
	}
}

// synthTexture builds a smooth random texture suitable for KLT.
func synthTexture(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = float32(rng.Float64())
	}
	return GaussianBlurPool(nil, g, 1.2)
}

func shiftImage(g *Gray, dx, dy float64) *Gray {
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.Set(x, y, g.bilinear(float64(x)-dx, float64(y)-dy))
		}
	}
	return out
}

func TestKLTTracksKnownShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := synthTexture(rng, 128, 96)
	dx, dy := 3.4, -2.1
	next := shiftImage(img, dx, dy)
	p0 := BuildPyramid(img, 3)
	p1 := BuildPyramid(next, 3)
	pts := [][2]float64{{40, 40}, {64, 50}, {90, 60}, {30, 70}}
	params := DefaultKLTParams()
	results := KLTTrack(p0, p1, pts, params)
	for i, r := range results {
		if !r.OK {
			t.Fatalf("point %d lost", i)
		}
		if math.Abs(r.X-pts[i][0]-dx) > 0.2 || math.Abs(r.Y-pts[i][1]-dy) > 0.2 {
			t.Errorf("point %d tracked to (%.2f,%.2f), want (%.2f,%.2f)",
				i, r.X, r.Y, pts[i][0]+dx, pts[i][1]+dy)
		}
	}
}

func TestKLTRejectsFlatRegion(t *testing.T) {
	flat := NewGray(64, 64)
	p := BuildPyramid(flat, 2)
	res := KLTTrack(p, p, [][2]float64{{32, 32}}, DefaultKLTParams())
	if res[0].OK {
		t.Error("flat region should be untrackable")
	}
}

func TestKLTRejectsOutOfBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	img := synthTexture(rng, 64, 64)
	p := BuildPyramid(img, 2)
	res := KLTTrack(p, p, [][2]float64{{1, 1}}, DefaultKLTParams())
	if res[0].OK {
		t.Error("border point should be rejected")
	}
}

func TestPlanarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := NewRGB(7, 5)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	planar := im.Planar()
	for i := 0; i < 7*5; i++ {
		for c := 0; c < 3; c++ {
			if planar[c*7*5+i] != im.Pix[3*i+c] {
				t.Fatalf("planar[%d] of channel %d mismatch", i, c)
			}
		}
	}
}

func TestLuminanceWeights(t *testing.T) {
	im := NewRGB(1, 1)
	im.Set(0, 0, 1, 1, 1)
	l := im.Luminance()
	if math.Abs(float64(l.At(0, 0))-1) > 1e-5 {
		t.Errorf("white luminance = %v", l.At(0, 0))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

package quality

import (
	"math"
	"math/rand"
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
)

func testImage(seed int64, w, h int) *imgproc.RGB {
	rng := rand.New(rand.NewSource(seed))
	im := imgproc.NewRGB(w, h)
	// smooth colorful pattern
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y,
				float32(0.5+0.4*math.Sin(float64(x)/7+rng.Float64()*0.01)),
				float32(0.5+0.4*math.Sin(float64(y)/9)),
				float32(0.5+0.4*math.Sin(float64(x+y)/11)))
		}
	}
	return im
}

func addNoise(im *imgproc.RGB, sigma float64, seed int64) *imgproc.RGB {
	rng := rand.New(rand.NewSource(seed))
	out := im.Clone()
	for i := range out.Pix {
		out.Pix[i] += float32(rng.NormFloat64() * sigma)
	}
	return out
}

func TestSSIMIdentical(t *testing.T) {
	im := testImage(1, 64, 64).Luminance()
	if got := SSIMPool(nil, im, im); math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIMPool(nil, x,x) = %v", got)
	}
}

func TestSSIMDecreasesWithNoise(t *testing.T) {
	im := testImage(1, 64, 64)
	low := addNoise(im, 0.02, 2)
	high := addNoise(im, 0.15, 3)
	sLow := SSIMRGB(im, low)
	sHigh := SSIMRGB(im, high)
	if !(1 > sLow && sLow > sHigh) {
		t.Errorf("SSIM ordering violated: low=%v high=%v", sLow, sHigh)
	}
	if sHigh > 0.9 {
		t.Errorf("heavy noise SSIM %v too high", sHigh)
	}
}

func TestSSIMSensitiveToBlur(t *testing.T) {
	// a finely textured image loses structure under blur
	rng := rand.New(rand.NewSource(9))
	im := imgproc.NewGray(64, 64)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	im = imgproc.GaussianBlurPool(nil, im, 0.6)
	blurred := imgproc.GaussianBlurPool(nil, im, 2.0)
	if got := SSIMPool(nil, im, blurred); got > 0.9 {
		t.Errorf("blur SSIM %v too high", got)
	}
}

func TestFLIPIdenticalZero(t *testing.T) {
	im := testImage(1, 48, 48)
	if got := flip(im, im); got > 1e-9 {
		t.Errorf("FLIP(x,x) = %v", got)
	}
	if got := OneMinusFLIP(im, im); math.Abs(got-1) > 1e-9 {
		t.Errorf("1-FLIP(x,x) = %v", got)
	}
}

func TestFLIPMonotonicInNoise(t *testing.T) {
	im := testImage(1, 48, 48)
	var last float64
	for i, sigma := range []float64{0.01, 0.05, 0.15, 0.3} {
		f := flip(im, addNoise(im, sigma, int64(10+i)))
		if f <= last {
			t.Errorf("FLIP not monotonic at sigma=%v: %v <= %v", sigma, f, last)
		}
		if f < 0 || f > 1 {
			t.Errorf("FLIP out of range: %v", f)
		}
		last = f
	}
}

func TestFLIPDetectsColorShift(t *testing.T) {
	im := testImage(1, 48, 48)
	shifted := im.Clone()
	for i := 0; i < len(shifted.Pix); i += 3 {
		shifted.Pix[i] = clampF(shifted.Pix[i] + 0.2) // push red
	}
	if got := flip(im, shifted); got < 0.02 {
		t.Errorf("color shift FLIP %v too low", got)
	}
}

func clampF(v float32) float32 {
	if v > 1 {
		return 1
	}
	return v
}

func mkTraj(n int, jitter float64, seed int64) ([]TimedPose, []TimedPose) {
	rng := rand.New(rand.NewSource(seed))
	var est, gt []TimedPose
	for i := 0; i < n; i++ {
		t := float64(i) * 0.1
		p := mathx.Vec3{X: math.Cos(t), Y: math.Sin(t), Z: 1}
		gt = append(gt, TimedPose{T: t, Pose: mathx.Pose{Pos: p, Rot: mathx.QuatIdentity()}})
		pe := p.Add(mathx.Vec3{
			X: rng.NormFloat64() * jitter,
			Y: rng.NormFloat64() * jitter,
			Z: rng.NormFloat64() * jitter,
		})
		est = append(est, TimedPose{T: t, Pose: mathx.Pose{Pos: pe, Rot: mathx.QuatIdentity()}})
	}
	return est, gt
}

func TestATEZeroForPerfect(t *testing.T) {
	est, gt := mkTraj(50, 0, 1)
	if got := ATE(est, gt); got > 1e-12 {
		t.Errorf("perfect ATE = %v", got)
	}
}

func TestATEScalesWithJitter(t *testing.T) {
	estA, gtA := mkTraj(200, 0.01, 2)
	estB, gtB := mkTraj(200, 0.05, 3)
	a := ATE(estA, gtA)
	b := ATE(estB, gtB)
	if !(a < b) {
		t.Errorf("ATE ordering: %v !< %v", a, b)
	}
	// RMSE of 3D gaussian jitter ≈ sigma*sqrt(3)
	if math.Abs(a-0.01*math.Sqrt(3)) > 0.005 {
		t.Errorf("ATE %v far from expected %v", a, 0.01*math.Sqrt(3))
	}
}

func TestRPEWindow(t *testing.T) {
	est, gt := mkTraj(100, 0.02, 4)
	r := RPE(est, gt, 0.5)
	if r <= 0 {
		t.Error("RPE should be positive for jittered trajectory")
	}
	perfect, gtp := mkTraj(100, 0, 5)
	if RPE(perfect, gtp, 0.5) > 1e-12 {
		t.Error("perfect RPE nonzero")
	}
}

func TestRotationalATE(t *testing.T) {
	_, gt := mkTraj(10, 0, 6)
	est := make([]TimedPose, len(gt))
	copy(est, gt)
	for i := range est {
		est[i].Pose.Rot = mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, 0.1)
	}
	if got := RotationalATE(est, gt); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("rot ATE = %v", got)
	}
}

func TestEmptyTrajectories(t *testing.T) {
	if ATE(nil, nil) != 0 || RPE(nil, nil, 1) != 0 || RotationalATE(nil, nil) != 0 {
		t.Error("empty trajectories should give 0")
	}
}

func TestSSIMStrided(t *testing.T) {
	a := testImage(1, 96, 80).Luminance()
	b := addNoise(testImage(1, 96, 80), 0.05, 4).Luminance()

	// stride 1 must be the full-resolution path, bit for bit
	full := SSIMPool(nil, a, b)
	if got := SSIMStridedPool(nil, a, b, 1); got != full {
		t.Fatalf("stride 1 = %v, SSIMPool = %v (must be bitwise identical)", got, full)
	}

	// stride > 1 is a cheaper, coarser metric — it must still behave
	// like SSIM: identical images score 1, and more degradation scores
	// lower (the ranking the QoS loop relies on when the knob is hot)
	im := testImage(1, 96, 80)
	low := addNoise(im, 0.02, 2).Luminance()
	high := addNoise(im, 0.15, 3).Luminance()
	lum := im.Luminance()
	for _, stride := range []int{2, 3, 4} {
		if self := SSIMStridedPool(nil, lum, lum, stride); math.Abs(self-1) > 1e-9 {
			t.Errorf("stride %d: SSIMPool(nil, x,x) = %v", stride, self)
		}
		sLow := SSIMStridedPool(nil, lum, low, stride)
		sHigh := SSIMStridedPool(nil, lum, high, stride)
		if !(1 > sLow && sLow > sHigh) {
			t.Errorf("stride %d: ordering violated: low=%v high=%v", stride, sLow, sHigh)
		}
	}
}

// TestSSIMStridedDeterminism: like every kernel, the strided score must
// be bitwise identical for any worker count.
func TestSSIMStridedDeterminism(t *testing.T) {
	a := testImage(7, 96, 80).Luminance()
	b := addNoise(testImage(7, 96, 80), 0.05, 8).Luminance()
	want := SSIMStridedPool(nil, a, b, 3)
	for _, w := range []int{2, 4, 7} {
		p := parallel.New(w)
		if got := SSIMStridedPool(p, a, b, 3); got != want {
			t.Fatalf("workers=%d: %v != serial %v", w, got, want)
		}
	}
}

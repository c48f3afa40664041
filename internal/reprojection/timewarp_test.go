package reprojection

import (
	"math"
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
)

// gradientImage builds an RGB image with a horizontal luminance ramp and a
// bright square marker.
func gradientImage(w, h int) *imgproc.RGB {
	im := imgproc.NewRGB(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float32(x) / float32(w)
			im.Set(x, y, v, v, v)
		}
	}
	for y := h/2 - 4; y < h/2+4; y++ {
		for x := w/2 - 4; x < w/2+4; x++ {
			im.Set(x, y, 1, 0.2, 0.2)
		}
	}
	return im
}

func noDistortion() Params {
	p := DefaultParams()
	p.K1, p.K2, p.ChromaticScale = 0, 0, 0
	return p
}

func TestIdentityReprojectionPreservesImage(t *testing.T) {
	src := gradientImage(64, 64)
	r := New(noDistortion())
	pose := mathx.PoseIdentity()
	out := r.Reproject(src, pose, pose)
	// Compare center region (borders can clip by half a pixel).
	for y := 4; y < 60; y++ {
		for x := 4; x < 60; x++ {
			sr, _, _ := src.At(x, y)
			or, _, _ := out.At(x, y)
			if math.Abs(float64(sr-or)) > 0.02 {
				t.Fatalf("pixel (%d,%d): %v vs %v", x, y, sr, or)
			}
		}
	}
}

func TestRotationShiftsImage(t *testing.T) {
	src := gradientImage(64, 64)
	r := New(noDistortion())
	renderPose := mathx.PoseIdentity()
	// Fresh pose rotated about the (image) vertical axis by a few degrees:
	// rotation about Y in camera space shifts the image horizontally.
	fresh := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Y: 1}, mathx.Deg2Rad(5))}
	out := r.Reproject(src, renderPose, fresh)
	// Find the marker (peak red-minus-green) in both images.
	find := func(im *imgproc.RGB) int {
		bestX, best := 0, float32(-1)
		for y := 28; y < 36; y++ {
			for x := 0; x < im.W; x++ {
				rr, gg, _ := im.At(x, y)
				if rr-gg > best {
					best, bestX = rr-gg, x
				}
			}
		}
		return bestX
	}
	srcX := find(src)
	outX := find(out)
	if srcX == outX {
		t.Errorf("rotation did not shift marker (x=%d)", srcX)
	}
	// 5° at 90° FoV over 64 px: tan(5°)/tan(45°)*32 ≈ 2.8 px
	wantShift := math.Tan(mathx.Deg2Rad(5)) / math.Tan(mathx.Deg2Rad(45)) * 32
	got := math.Abs(float64(outX - srcX))
	if math.Abs(got-wantShift) > 2.5 {
		t.Errorf("shift %v px, want ≈%v", got, wantShift)
	}
}

func TestTranslationalReprojection(t *testing.T) {
	src := gradientImage(64, 64)
	p := noDistortion()
	p.Translational = true
	p.PlaneDepth = 2
	r := New(p)
	renderPose := mathx.PoseIdentity()
	// Camera moves right (+X in camera space): scene appears to move left.
	fresh := mathx.Pose{Pos: mathx.Vec3{X: 0.1}, Rot: mathx.QuatIdentity()}
	out := r.Reproject(src, renderPose, fresh)
	find := func(im *imgproc.RGB) int {
		bestX, best := 0, float32(-1)
		for y := 28; y < 36; y++ {
			for x := 0; x < im.W; x++ {
				rr, gg, _ := im.At(x, y)
				if rr-gg > best {
					best, bestX = rr-gg, x
				}
			}
		}
		return bestX
	}
	if find(out) >= find(src) {
		t.Errorf("translational warp: marker at %d, expected left of %d", find(out), find(src))
	}
	// rotational-only must ignore translation entirely
	r2 := New(noDistortion())
	out2 := r2.Reproject(src, renderPose, fresh)
	if find(out2) != find(src) {
		t.Error("rotational-only reprojection responded to translation")
	}
}

func TestChromaticAberrationSeparatesChannels(t *testing.T) {
	src := gradientImage(64, 64)
	p := DefaultParams()
	p.ChromaticScale = 0.05
	r := New(p)
	pose := mathx.PoseIdentity()
	out := r.Reproject(src, pose, pose)
	// Off-center, red and blue should sample different source positions →
	// channels diverge from the (originally gray) ramp.
	diverged := 0
	for y := 8; y < 56; y += 4 {
		for x := 8; x < 56; x += 4 {
			rr, _, bb := out.At(x, y)
			if math.Abs(float64(rr-bb)) > 1e-4 {
				diverged++
			}
		}
	}
	if diverged == 0 {
		t.Error("chromatic aberration had no channel separation effect")
	}
}

func TestDistortionMeshMagnifiesCenterLess(t *testing.T) {
	p := DefaultParams()
	r := New(p)
	// Pre-distortion moves edge samples outward more than center samples.
	cx, cy := meshLookup(r.meshG, r.meshW, r.meshH, 0.5, 0.5)
	if math.Abs(cx) > 1e-9 || math.Abs(cy) > 1e-9 {
		t.Errorf("center mesh not at origin: (%v,%v)", cx, cy)
	}
	ex, _ := meshLookup(r.meshG, r.meshW, r.meshH, 1, 0.5)
	tanHalf := math.Tan(p.FovY / 2)
	if ex <= tanHalf {
		t.Errorf("edge not barrel-distorted outward: %v <= %v", ex, tanHalf)
	}
}

func TestStatsAccumulate(t *testing.T) {
	src := gradientImage(32, 32)
	r := New(noDistortion())
	pose := mathx.PoseIdentity()
	r.Reproject(src, pose, pose)
	r.Reproject(src, pose, pose)
	if r.Stats.Pixels != 2*32*32 {
		t.Errorf("pixels = %d", r.Stats.Pixels)
	}
	if r.Stats.StateOps != 6 {
		t.Errorf("state ops = %d", r.Stats.StateOps)
	}
	if r.Stats.MeshVertices == 0 {
		t.Error("mesh vertices not counted")
	}
}

func TestBehindCameraLeavesBlack(t *testing.T) {
	src := gradientImage(32, 32)
	r := New(noDistortion())
	// 180° rotation: everything behind.
	fresh := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Y: 1}, math.Pi)}
	out := r.Reproject(src, mathx.PoseIdentity(), fresh)
	sum := float32(0)
	for _, v := range out.Pix {
		sum += v
	}
	if sum > 1 {
		t.Errorf("180° warp should be mostly black, sum=%v", sum)
	}
}

// meshLookup interpolates a distortion mesh at output NDC (u, v).
func meshLookup(mesh [][2]float64, w, h int, u, v float64) (x, y float64) {
	x0, ax := meshCell(u, w)
	y0, ay := meshCell(v, h)
	v00, v10 := mesh[y0*w+x0], mesh[y0*w+x0+1]
	v01, v11 := mesh[(y0+1)*w+x0], mesh[(y0+1)*w+x0+1]
	x = (v00[0]*(1-ax)+v10[0]*ax)*(1-ay) + (v01[0]*(1-ax)+v11[0]*ax)*ay
	y = (v00[1]*(1-ax)+v10[1]*ax)*(1-ay) + (v01[1]*(1-ax)+v11[1]*ax)*ay
	return x, y
}

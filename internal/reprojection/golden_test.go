package reprojection

import (
	"math"
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/testutil"
)

func testFrame(w, h int) *imgproc.RGB {
	im := imgproc.NewRGB(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w)
			fy := float64(y) / float64(h)
			im.Set(x, y,
				float32(0.5+0.5*math.Sin(11*fx+5*fy)),
				float32(fx),
				float32(0.5+0.5*math.Cos(9*fy-3*fx)))
		}
	}
	return im
}

func testPoses() (renderPose, freshPose mathx.Pose) {
	renderPose = mathx.PoseIdentity()
	freshPose = mathx.Pose{
		Pos: mathx.Vec3{X: 0.01, Y: -0.005, Z: 0.002},
		Rot: mathx.QuatFromAxisAngle(mathx.Vec3{X: 0.2, Y: 0.3, Z: 1}.Normalized(), 0.03),
	}
	return
}

// sampleRGB reduces a frame to a compact fixture: a strided sample of the
// pixel buffer plus the full sequential checksum.
func sampleRGB(im *imgproc.RGB) []float64 {
	var out []float64
	stride := len(im.Pix)/256 + 1
	for i := 0; i < len(im.Pix); i += stride {
		out = append(out, float64(im.Pix[i]))
	}
	sum := 0.0
	for _, v := range im.Pix {
		sum += float64(v)
	}
	return append(out, sum)
}

func TestGoldenReproject(t *testing.T) {
	warp := New(DefaultParams())
	renderPose, freshPose := testPoses()
	out := warp.Reproject(testFrame(128, 96), renderPose, freshPose)
	testutil.CheckGolden(t, "testdata/reproject_128x96.golden", sampleRGB(out), 0)
}

func TestDeterminismReproject(t *testing.T) {
	src := testFrame(128, 96)
	renderPose, freshPose := testPoses()
	serial := New(DefaultParams())
	ref := serial.Reproject(src, renderPose, freshPose)
	for _, workers := range []int{2, 4, 7} {
		warp := New(DefaultParams())
		warp.SetPool(parallel.New(workers))
		got := warp.Reproject(src, renderPose, freshPose)
		for i := range got.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(ref.Pix[i]) {
				t.Fatalf("workers=%d: pixel %d differs: %v vs %v", workers, i, got.Pix[i], ref.Pix[i])
			}
		}
	}
}

// TestWidthChangeMatchesFresh drives one Reprojector through source widths
// 160 → 320 → 160, rotational and translational: each frame must equal, bit
// for bit, a fresh Reprojector's, so the x-blend table is rebuilt (and
// reused in place) whenever the width changes.
func TestWidthChangeMatchesFresh(t *testing.T) {
	renderPose, freshPose := testPoses()
	for _, translational := range []bool{false, true} {
		p := DefaultParams()
		p.Translational = translational
		warp := New(p)
		for _, w := range []int{160, 320, 160} {
			src := testFrame(w, w*9/16)
			got := warp.Reproject(src, renderPose, freshPose)
			want := New(p).Reproject(src, renderPose, freshPose)
			for i := range got.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("translational=%v width %d: pixel %d is %v, fresh Reprojector %v",
						translational, w, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

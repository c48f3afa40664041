package reprojection

import (
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/testutil"
)

// TestZeroAllocReproject pins the serial warp at zero steady-state
// allocations: the output image comes from the pool and goes back each
// frame, and the distortion meshes come from the params-keyed cache.
func TestZeroAllocReproject(t *testing.T) {
	r := New(DefaultParams())
	src := imgproc.NewRGB(160, 90)
	for i := range src.Pix {
		src.Pix[i] = float32(i%97) / 97
	}
	renderPose := mathx.PoseIdentity()
	freshPose := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, 0.02)}
	testutil.MustZeroAllocs(t, "Reprojector.Reproject", func() {
		out := r.Reproject(src, renderPose, freshPose)
		imgproc.PutRGB(out)
	})
}

// BenchmarkReproject320x180 is the live pipeline's warp: one frame at the
// benchmark's resolution on a GOMAXPROCS-sized pool (run with -cpu 1,2).
func BenchmarkReproject320x180(b *testing.B) {
	r := New(DefaultParams())
	r.SetPool(parallel.New(0))
	src := testFrame(320, 180)
	renderPose, freshPose := testPoses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imgproc.PutRGB(r.Reproject(src, renderPose, freshPose))
	}
}

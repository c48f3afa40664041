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

// BenchmarkReproject1280x720 is Table VII's reprojection workload: one
// 720p frame on the serial path.
func BenchmarkReproject1280x720(b *testing.B) {
	src := imgproc.NewRGB(1280, 720)
	for i := range src.Pix {
		src.Pix[i] = float32(i%255) / 255
	}
	warp := New(DefaultParams())
	renderPose := mathx.PoseIdentity()
	fresh := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Y: 1}, 0.02)}
	// at -benchtime=100ms this runs a couple of frames: build the x-blend
	// table and pool the output before timing, so ns/op is a steady frame
	imgproc.PutRGB(warp.Reproject(src, renderPose, fresh))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imgproc.PutRGB(warp.Reproject(src, renderPose, fresh))
	}
}

package reconstruct

import (
	"testing"

	"illixr/internal/sensors"
)

// BenchmarkTable6Recon_Frame is one frame of Table VI's scene
// reconstruction on the low-resolution test camera.
func BenchmarkTable6Recon_Frame(b *testing.B) {
	cam := smallCam()
	world := sensors.NewRoomWorld(40, 3)
	traj := sensors.DefaultTrajectory()
	r := New(DefaultParams(), cam, traj.Pose(0))
	depth, rgb := world.RenderDepth(cam, traj.Pose(0))
	pose := traj.Pose(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ProcessFrame(depth, rgb, &pose)
	}
}

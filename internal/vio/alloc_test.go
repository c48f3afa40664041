package vio

import (
	"runtime"
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
	"illixr/internal/testutil"
)

// BenchmarkVIORun is Table VI's VIO row as wall-clock work: one filter run
// over a four-second recording (60 camera frames, ~33 IMU steps each), for
// the accurate and the §V-E fast configuration. allocs/frame and B/frame
// include the runner's own bookkeeping and the filter's warm-up.
func BenchmarkVIORun(b *testing.B) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 4
	ds := sensors.GenerateDataset(cfg)
	for _, c := range []struct {
		name string
		p    Params
	}{{"default", DefaultParams()}, {"fast", FastParams()}} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := NewRunner(ds, c.p, NewGeometricFrontend(ds.Cam, c.p.MaxFeatures))
				r.Run(ds)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			frames := float64(b.N * len(ds.Frames))
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/frames, "allocs/frame")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/frames, "B/frame")
		})
	}
}

// frameInputs replays the runner's IMU batching and the geometric front end
// over ds, so a test can time or count ProcessFrame alone.
func frameInputs(ds *sensors.Dataset, p Params) []FrameInput {
	fe := NewGeometricFrontend(ds.Cam, p.MaxFeatures)
	var ins []FrameInput
	imuIdx := 0
	for _, frame := range ds.Frames {
		var imu []sensors.IMUSample
		for ; imuIdx < len(ds.IMU) && ds.IMU[imuIdx].T <= frame.T; imuIdx++ {
			imu = append(imu, ds.IMU[imuIdx])
		}
		feats, _ := fe.Process(frame)
		ins = append(ins, FrameInput{T: frame.T, Features: feats, IMU: imu})
	}
	return ins
}

// warmedFilter runs a filter through the first warm frames of the golden
// recording: the window is full, SLAM features are in the state, and the
// arena and both covariance buffers have reached their working size.
func warmedFilter(t *testing.T, warm int) (*Filter, []FrameInput) {
	t.Helper()
	ds := goldenDataset(42)
	p := DefaultParams()
	f := NewRunner(ds, p, nil).Filter
	ins := frameInputs(ds, p)
	for _, in := range ins[:warm] {
		f.ProcessFrame(in)
	}
	if f.CloneCount() != p.MaxClones || f.SLAMFeatureCount() == 0 {
		t.Fatalf("filter not warm after %d frames: %d clones, %d SLAM features", warm, f.CloneCount(), f.SLAMFeatureCount())
	}
	return f, ins[warm:]
}

// TestZeroAllocVIOPropagate: one IMU step on a full window (the 15×15 and
// 15×(n-15) products, ~33 times per camera frame) allocates nothing.
func TestZeroAllocVIOPropagate(t *testing.T) {
	f, rest := warmedFilter(t, 30)
	imu := rest[0].IMU
	prev, cur := imu[0], imu[1]
	testutil.MustZeroAllocs(t, "Filter.propagate", func() {
		prev.T = f.t
		cur.T = f.t + 0.002
		f.propagate(prev, cur)
	})
}

// TestZeroAllocEKFUpdate: the Kalman update at a fixed state dimension,
// with and without QR compression, allocates nothing: gain, Joseph form
// and the QR scratch are the arena's, the new covariance is the spare
// buffer.
func TestZeroAllocEKFUpdate(t *testing.T) {
	f, _ := warmedFilter(t, 30)
	n := f.dim()
	for _, rows := range []int{40, n + 12} {
		// two entries per row over the clone block, zero residual: the state
		// stays put while the covariance is rewritten
		h := mathx.NewMat(rows, n)
		for r := 0; r < rows; r++ {
			h.Set(r, imuDim+(r*7)%(n-imuDim), 1)
			h.Set(r, imuDim+(r*13+5)%(n-imuDim), -0.5)
		}
		res := make([]float64, rows)
		testutil.MustZeroAllocs(t, "Filter.ekfUpdate", func() {
			f.arena.Reset()
			if !f.ekfUpdate(h, res, 1e-5) {
				t.Fatal("update rejected")
			}
		})
	}
}

// TestVIOFrameAllocBudget holds a steady-state camera frame to a small
// allocation budget (it was ~1 073): what is left is the tracks themselves,
// a Track and its observation array per feature that enters the view.
func TestVIOFrameAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	f, rest := warmedFilter(t, 30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, in := range rest {
		f.ProcessFrame(in)
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(len(rest))
	t.Logf("%.1f allocs and %.0f B per camera frame over %d frames",
		perFrame, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(rest)), len(rest))
	if perFrame > 30 {
		t.Errorf("%.1f allocs per camera frame, budget 30", perFrame)
	}
}

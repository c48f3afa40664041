package render

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/sensors"
	"illixr/internal/testutil"
)

// loopPose is a head pose on the scenes' walking loop at time tm.
func loopPose(tm float64) mathx.Pose {
	return mathx.Pose{
		Pos: mathx.Vec3{X: 2 * math.Cos(tm*0.3), Y: 2 * math.Sin(tm*0.3), Z: 1.6},
		Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, tm*0.3+math.Pi/2),
	}
}

// goldenTimes are the frames every golden and determinism test renders, in
// order on one Renderer (so the reused buffers are exercised too).
var goldenTimes = []float64{0, 2.5, 7}

// sampleFrame reduces a framebuffer and the renderer's running stats to a
// compact fixture: a strided sample of the pixels, their sequential sum, an
// FNV-64a hash of every pixel's float bits (as two exactly representable
// halves, so one flipped bit anywhere fails), and the five work counters.
func sampleFrame(fb *imgproc.RGB, st FrameStats) []float64 {
	var out []float64
	stride := len(fb.Pix)/256 + 1
	for i := 0; i < len(fb.Pix); i += stride {
		out = append(out, float64(fb.Pix[i]))
	}
	sum := 0.0
	h := fnv.New64a()
	var b [4]byte
	for _, v := range fb.Pix {
		sum += float64(v)
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	hash := h.Sum64()
	return append(out, sum, float64(hash>>32), float64(hash&0xffffffff),
		float64(st.TrianglesSubmitted), float64(st.TrianglesRasterized),
		float64(st.FragmentsShaded), float64(st.ShadingCostWeight), float64(st.PhysicsOps))
}

// TestGoldenRender pins the rasteriser's output to fixtures written before
// the set-up/raster split: Sponza covers the Blinn-Phong path, Materials
// the PBR and Lambert paths. The fixtures are amd64 facts, like
// benchmark/testdata/live_golden.json: a compiler that fuses multiply-adds
// (arm64, ppc64, s390x) may round the edge functions differently.
func TestGoldenRender(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixtures were written on amd64, this is %s", runtime.GOARCH)
	}
	for _, app := range []AppName{AppSponza, AppMaterials} {
		s := BuildScene(app, 42)
		r := NewRenderer(160, 90)
		var got []float64
		for _, tm := range goldenTimes {
			fb := r.RenderFrame(s, loopPose(tm), tm)
			got = append(got, sampleFrame(fb, r.Stats)...)
		}
		testutil.CheckGolden(t, "testdata/"+string(app)+"_160x90.golden", got, 0)
	}
}

// TestDeterminismRender holds every pixel and every work counter equal at
// any worker count: the serial nil pool is the reference.
func TestDeterminismRender(t *testing.T) {
	for _, app := range []AppName{AppSponza, AppMaterials, AppPlatformer} {
		renderAll := func(pool *parallel.Pool) ([]*imgproc.RGB, FrameStats) {
			s := BuildScene(app, 42)
			r := NewRenderer(160, 90)
			r.SetPool(pool)
			var frames []*imgproc.RGB
			for _, tm := range goldenTimes {
				frames = append(frames, r.RenderFrame(s, loopPose(tm), tm).Clone())
			}
			return frames, r.Stats
		}
		ref, refStats := renderAll(nil)
		for _, workers := range []int{1, 2, 4, 7} {
			got, stats := renderAll(parallel.New(workers))
			if stats != refStats {
				t.Errorf("%s workers=%d: stats %+v, serial %+v", app, workers, stats, refStats)
			}
			for f := range got {
				for i := range got[f].Pix {
					if math.Float32bits(got[f].Pix[i]) != math.Float32bits(ref[f].Pix[i]) {
						t.Fatalf("%s workers=%d frame %d: pixel %d differs: %v vs %v",
							app, workers, f, i, got[f].Pix[i], ref[f].Pix[i])
					}
				}
			}
		}
	}
}

// TestZeroAllocRenderFrame pins a steady-state frame of every app at zero
// allocations: the clip-vertex, triangle, light and band-counter buffers
// are the Renderer's and are reused, and the animated scenes (Platformer's
// enemies, the AR demo's ball) re-pose their meshes in place. The last
// case renders Sponza along the live walk, 99 frames spread over the
// whole recording, so instances come into view long after the first frame
// sized their buffers: not one of those frames may allocate, which
// AllocsPerRun's rounded per-run average would not show. It runs the
// set-up and raster tiles serially, on the nil pool: a pool runs the same
// tile functions over the same buffers, and its helper goroutines now and
// then make the runtime allocate. It takes the least count of three walks
// on fresh renderers, as the runtime's own allocations come and go and a
// renderer's repeat.
func TestZeroAllocRenderFrame(t *testing.T) {
	for _, app := range AllApps {
		s := BuildScene(app, 42)
		r := NewRenderer(160, 90)
		tm := 0.0
		testutil.MustZeroAllocs(t, string(app)+" Renderer.RenderFrame", func() {
			tm += 1.0 / 120
			r.RenderFrame(s, loopPose(tm), tm)
		})
	}
	if testutil.RaceEnabled {
		return
	}
	s, pose, frames := liveWalk()
	least := uint64(math.MaxUint64)
	for range 3 {
		r := NewRenderer(320, 180)
		r.SetPool(nil)
		r.RenderFrame(s, pose(0), 0)
		runtime.GC() // the recording's garbage, collected before the count
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := frames / 100; k < frames; k += frames / 100 {
			tm := float64(k) / 120
			r.RenderFrame(s, pose(tm), tm)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("live walk Renderer.RenderFrame: %d allocations in the frames after the first, want 0", least)
	}
}

// liveWalk is the live pipeline's application input: Sponza as
// live_pipeline builds it (seed 1) and the head pose at time tm on the
// ground truth of the recording it replays (500 Hz IMU, 15 Hz camera, seed
// 1). frames is the recording's length in 120 Hz display frames.
func liveWalk() (s *Scene, pose func(tm float64) mathx.Pose, frames int) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.IMURateHz, cfg.CamRateHz, cfg.Seed = 500, 15, 1
	ds := sensors.GenerateDataset(cfg)
	pose = func(tm float64) mathx.Pose { return ds.GroundTruth[int(tm*cfg.IMURateHz)].Pose }
	return BuildScene(AppSponza, 1), pose, int(cfg.Duration * 120)
}

// BenchmarkRenderSponza is Sponza at the live pipeline's resolution on the
// renderer's own GOMAXPROCS-sized pool (run with -cpu 1,2), posed on the
// walking loop. Its views are not live_pipeline's: before row spans they
// tested about 3.4 bounding-box pixels per screen pixel, the live
// trajectory's about 11.6 (BenchmarkRenderLive renders those).
func BenchmarkRenderSponza(b *testing.B) {
	s := BuildScene(AppSponza, 42)
	r := NewRenderer(320, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := float64(i%240) / 120
		r.RenderFrame(s, loopPose(tm), tm)
	}
}

// BenchmarkRenderLive is the live pipeline's application frame: Sponza as
// live_pipeline builds it (seed 1) at 320×180, posed along the ground truth
// of the recording it replays (500 Hz IMU, 15 Hz camera, seed 1) at the
// 120 Hz display rate, on the renderer's own pool (run with -cpu 1,2).
func BenchmarkRenderLive(b *testing.B) {
	s, pose, frames := liveWalk()
	r := NewRenderer(320, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := float64(i%frames) / 120
		r.RenderFrame(s, pose(tm), tm)
	}
}

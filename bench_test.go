// Package illixr_test holds the top-level benchmark harness: one
// testing.B benchmark per paper table and figure (driving the same code
// paths as cmd/illixr-bench) plus per-component microbenchmarks for the
// standalone workloads of §IV-B. Run with:
//
//	go test -bench=. -benchmem
package illixr_test

import (
	"io"
	"testing"

	"illixr/internal/bench"
	"illixr/internal/core"
	"illixr/internal/eyetrack"
	"illixr/internal/hologram"
	"illixr/internal/perfmodel"
	"illixr/internal/reconstruct"
	"illixr/internal/render"
	"illixr/internal/sensors"
)

// ---- static tables (Tables I-III, Fig 8) -------------------------------

func BenchmarkTable1Requirements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

func BenchmarkTable2Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard)
	}
}

func BenchmarkTable3Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(io.Discard)
	}
}

func BenchmarkFig8Microarch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(io.Discard)
	}
}

// ---- integrated-system experiments (Figs 3-7, Tables IV-V) -------------

// integratedRun is the common kernel behind Figs 3-7 and Table IV: one
// cell of the evaluation matrix at a short virtual duration.
func integratedRun(b *testing.B, app render.AppName, plat perfmodel.Platform, quality bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultRunConfig(app, plat)
		cfg.Duration = 2
		if quality {
			cfg.QualityFrames = 2
			cfg.QualityW, cfg.QualityH = 160, 90
		}
		res := core.Run(cfg)
		if res.FrameRateHz[core.CompIMU] == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkFig3FrameRates_DesktopSponza(b *testing.B) {
	integratedRun(b, render.AppSponza, perfmodel.Desktop, false)
}

func BenchmarkFig3FrameRates_JetsonLPSponza(b *testing.B) {
	integratedRun(b, render.AppSponza, perfmodel.JetsonLP, false)
}

func BenchmarkFig4ExecutionTimes_DesktopPlatformer(b *testing.B) {
	integratedRun(b, render.AppPlatformer, perfmodel.Desktop, false)
}

func BenchmarkFig5CPUShares_JetsonHPMaterials(b *testing.B) {
	integratedRun(b, render.AppMaterials, perfmodel.JetsonHP, false)
}

func BenchmarkFig6Power_JetsonLPARDemo(b *testing.B) {
	integratedRun(b, render.AppARDemo, perfmodel.JetsonLP, false)
}

func BenchmarkFig7MTP_JetsonHPPlatformer(b *testing.B) {
	integratedRun(b, render.AppPlatformer, perfmodel.JetsonHP, false)
}

func BenchmarkTable4MTP_DesktopARDemo(b *testing.B) {
	integratedRun(b, render.AppARDemo, perfmodel.Desktop, false)
}

func BenchmarkTable5ImageQuality_DesktopSponza(b *testing.B) {
	integratedRun(b, render.AppSponza, perfmodel.Desktop, true)
}

// ---- standalone component workloads (Tables VI-VII) --------------------
// Table VI's VIO row and the §V-E fast-parameter ablation live with their
// package: BenchmarkVIORun/{default,fast} in internal/vio. So do Table
// VII's reprojection (BenchmarkReproject1280x720) and audio rows
// (BenchmarkEncodeBlock, BenchmarkPlaybackBlock in internal/audio) and the
// application frame (BenchmarkRenderSponza in internal/render).

func BenchmarkTable6Recon_Frame(b *testing.B) {
	cam := sensors.CameraModel{Width: 80, Height: 60, Fx: 40, Fy: 40, Cx: 40, Cy: 30}
	world := sensors.NewRoomWorld(40, 3)
	traj := sensors.DefaultTrajectory()
	r := reconstruct.New(reconstruct.DefaultParams(), cam, traj.Pose(0))
	depth, rgb := world.RenderDepth(cam, traj.Pose(0))
	pose := traj.Pose(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ProcessFrame(depth, rgb, &pose)
	}
}

func BenchmarkTable7Hologram_GSW(b *testing.B) {
	p := hologram.DefaultParams()
	p.Width, p.Height = 128, 128
	p.Iterations = 3
	spots := hologram.SpotsFromDepthPlanes(2, 4, 6e-4, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hologram.Generate(p, spots)
	}
}

func BenchmarkEyeTracking_Inference(b *testing.B) {
	tr := eyetrack.NewTracker()
	img := eyetrack.SynthEyeImage(160, 120, 0.1, 0, 0.02, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Track(img.Img)
	}
}

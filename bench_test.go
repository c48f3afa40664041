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
	"illixr/internal/perfmodel"
	"illixr/internal/render"
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
// These live with their packages: Table VI's VIO row and the §V-E
// ablation (BenchmarkVIORun/{default,fast}, internal/vio) and its scene
// reconstruction (BenchmarkTable6Recon_Frame, internal/reconstruct);
// Table VII's reprojection (BenchmarkReproject1280x720), audio
// (BenchmarkEncodeBlock, BenchmarkPlaybackBlock) and hologram
// (BenchmarkTable7Hologram_GSW) rows; eye tracking
// (BenchmarkEyeTracking_Inference, internal/eyetrack); and the
// application frame (BenchmarkRenderSponza, internal/render).

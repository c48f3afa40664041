// Package core assembles the integrated ILLIXR system — the paper's
// primary contribution — and runs it end-to-end on a modelled hardware
// platform: real component algorithms (VIO, integrator, renderer,
// reprojection, audio) produce per-frame work statistics; the perfmodel
// translates that work into virtual execution time; and the simsched
// discrete-event scheduler plays the whole system forward, enforcing the
// dependency graph of Fig 2 and producing the frame rates, per-frame
// execution times, CPU shares, power, MTP and image-quality metrics of
// §IV-A (Figs 3–7, Tables IV–V).
package core

import (
	"illixr/internal/config"
	"illixr/internal/faults"
	"illixr/internal/perfmodel"
	"illixr/internal/power"
	"illixr/internal/render"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// RunConfig configures one integrated run (one cell of the 4-app ×
// 3-platform evaluation matrix).
type RunConfig struct {
	App      render.AppName
	Platform perfmodel.Platform
	Duration float64 // seconds of virtual time (the paper uses ≈30 s)
	Seed     int64
	System   config.SystemParams
	VIO      vio.Params
	// QualityFrames, when > 0, enables the offline image-quality pipeline
	// (Table V) on that many sampled frames.
	QualityFrames int
	// Metrics, when non-nil, receives the run's counters, gauges and
	// histograms (per-task scheduling stats, per-stage MTP attribution,
	// fault counters) under the illixr_<component>_<name> naming scheme.
	// Nil (the default) keeps every instrumented path a no-op.
	Metrics *telemetry.Registry
	// Spans, when non-nil, collects causal spans: every sensor sample
	// starts a trace, and each downstream stage (VIO, integrator,
	// reprojection, display) emits a span naming its parents, so a display
	// frame can be walked back to the camera frame and IMU sample that
	// produced it. Export with SpanCollector.WriteChromeTrace.
	Spans *telemetry.SpanCollector
	// QualityRes is the offline-render resolution per axis pair.
	QualityW, QualityH int
	// Faults, when non-nil, injects the deterministic fault schedule into
	// the run: sensor-dropout windows suppress camera/IMU releases, a VIO
	// stall hangs the estimator until its timeout-restart, and cost
	// spikes inflate component compute. The degradation policies (VIO
	// skipping dropped frames, dead-reckoning on stale poses, reprojection
	// warping through the stall) and their QoE impact are measured into
	// RunResult.Faults. See internal/faults.
	Faults *faults.Schedule
}

// DefaultRunConfig returns the paper's tuned configuration for an app and
// platform.
func DefaultRunConfig(app render.AppName, plat perfmodel.Platform) RunConfig {
	return RunConfig{
		App:      app,
		Platform: plat,
		Duration: 30,
		Seed:     42,
		System:   config.Default(),
		VIO:      vio.DefaultParams(),
		QualityW: 320,
		QualityH: 180,
	}
}

// Component names used in results (the Fig 3/Fig 5 legend).
const (
	CompCamera     = "camera"
	CompIMU        = "imu"
	CompVIO        = "vio"
	CompIntegrator = "integrator"
	CompApp        = "application"
	CompReproj     = "reprojection"
	CompAudioEnc   = "audio_encoding"
	CompAudioPlay  = "audio_playback"
)

// Components lists the integrated components in Fig 3's order.
var Components = []string{
	CompCamera, CompVIO, CompIMU, CompIntegrator,
	CompApp, CompReproj, CompAudioPlay, CompAudioEnc,
}

// RunResult is the full measurement record of one integrated run.
type RunResult struct {
	App      string
	Platform string
	Duration float64

	// FrameRateHz and TargetHz per component (Fig 3).
	FrameRateHz map[string]float64
	TargetHz    map[string]float64
	// ExecMs holds per-instance execution times in milliseconds (Fig 4).
	ExecMs map[string][]float64
	// Timeline is the (t, execMs) series per component (Fig 4).
	Timeline map[string]*telemetry.Series
	// CPUShare is each component's fraction of total CPU cycles (Fig 5).
	CPUShare map[string]float64
	// Dropped counts skipped instances per component.
	Dropped map[string]int

	// Utilizations over the run.
	CPUUtil, GPUUtil float64
	// Power is the modelled rail breakdown (Fig 6).
	Power power.Breakdown

	// MTP samples (Fig 7 / Table IV).
	MTP []telemetry.MTPSample

	// VIOATE is the head-tracking absolute trajectory error of the run's
	// perception pipeline (meters).
	VIOATE float64

	// SSIM and OneMinusFLIP are the offline image-quality metrics
	// (Table V); zero when the quality pipeline was disabled.
	SSIM         telemetry.Summary
	OneMinusFLIP telemetry.Summary

	// Faults measures the QoE impact of every injected fault window
	// (MTP before/during/after, pose staleness, recovery time); nil when
	// the run had no fault schedule.
	Faults *FaultReport
}

// mtpTotals extracts the total MTP milliseconds per sample.
func (r *RunResult) mtpTotals() []float64 {
	out := make([]float64, len(r.MTP))
	for i, m := range r.MTP {
		out[i] = m.Total()
	}
	return out
}

// MTPSummary summarizes Table IV's cell for this run.
func (r *RunResult) MTPSummary() telemetry.Summary {
	return telemetry.Summarize(r.mtpTotals())
}

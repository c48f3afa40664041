package bench

// The observability experiment: run one instrumented integrated run and
// snapshot what the tracing and metrics layers collected — span volume,
// per-stage MTP attribution, scheduler counters — plus the wall-clock
// overhead of collection versus an identical uninstrumented run. The JSON
// file it writes (BENCH_observability.json) is a perf baseline later PRs
// can diff against.

import (
	"fmt"
	"io"
	"time"

	"illixr/internal/core"
	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/telemetry"
)

// observabilitySnapshot is the BENCH_observability.json schema.
type observabilitySnapshot struct {
	App      string  `json:"app"`
	Platform string  `json:"platform"`
	Duration float64 `json:"duration_s"`

	// Span collection volume.
	Spans        int            `json:"spans"`
	SpansDropped uint64         `json:"spans_dropped"`
	SpansByStage map[string]int `json:"spans_by_stage"`

	// Wall-clock cost of the same run with and without collectors.
	BaselineWallMs     float64 `json:"baseline_wall_ms"`
	InstrumentedWallMs float64 `json:"instrumented_wall_ms"`
	OverheadRatio      float64 `json:"overhead_ratio"`

	// Per-stage MTP attribution from the registry's histograms.
	MTP map[string]telemetry.HistogramSnapshot `json:"mtp_ms"`

	// Full registry contents for ad-hoc diffing.
	Registry telemetry.RegistrySnapshot `json:"registry"`
}

// observability runs the experiment; the summary renders to w.
func observability(w io.Writer, duration float64) *observabilitySnapshot {
	app, plat := render.AppPlatformer, perfmodel.Desktop

	base := core.DefaultRunConfig(app, plat)
	base.Duration = duration
	t0 := time.Now()
	core.Run(base)
	baseWall := time.Since(t0)

	inst := core.DefaultRunConfig(app, plat)
	inst.Duration = duration
	inst.Metrics = telemetry.NewRegistry()
	inst.Spans = telemetry.NewSpanCollector(0)
	t1 := time.Now()
	core.Run(inst)
	instWall := time.Since(t1)

	snap := &observabilitySnapshot{
		App:                string(app),
		Platform:           plat.Name,
		Duration:           duration,
		Spans:              inst.Spans.Len(),
		SpansDropped:       inst.Spans.Dropped(),
		SpansByStage:       map[string]int{},
		BaselineWallMs:     float64(baseWall.Nanoseconds()) / 1e6,
		InstrumentedWallMs: float64(instWall.Nanoseconds()) / 1e6,
		MTP:                map[string]telemetry.HistogramSnapshot{},
		Registry:           inst.Metrics.Snapshot(),
	}
	if baseWall > 0 {
		snap.OverheadRatio = float64(instWall) / float64(baseWall)
	}
	for _, sp := range inst.Spans.Spans() {
		snap.SpansByStage[sp.Name]++
	}
	for _, stage := range []string{"total", "imu_age", "reproj", "swap"} {
		name := telemetry.MetricName(core.CompReproj, "mtp_"+stage+"_ms")
		if h := inst.Metrics.Histogram(name); h != nil {
			snap.MTP[stage] = h.Snapshot()
		}
	}

	fmt.Fprintf(w, "Observability baseline (%s on %s, %.0f s virtual):\n", snap.App, snap.Platform, duration)
	fmt.Fprintf(w, "  spans collected: %d (%d dropped)\n", snap.Spans, snap.SpansDropped)
	fmt.Fprintf(w, "  wall clock: %.0f ms uninstrumented, %.0f ms instrumented (%.2fx)\n",
		snap.BaselineWallMs, snap.InstrumentedWallMs, snap.OverheadRatio)
	if m, ok := snap.MTP["total"]; ok {
		fmt.Fprintf(w, "  MTP from histograms: p50 %.2f ms, p99 %.2f ms over %d frames\n", m.P50, m.P99, m.Count)
	}
	return snap
}

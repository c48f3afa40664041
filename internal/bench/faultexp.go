package bench

import (
	"fmt"
	"io"
	"sort"

	"illixr/internal/core"
	"illixr/internal/faults"
	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/telemetry"
)

// faultScenario runs one integrated run under a named, seeded fault
// scenario and renders the graceful-degradation measurements: per-window
// MTP before/during/after, displayed-pose staleness peak, and recovery
// time — the robustness companion to the paper's steady-state evaluation
// (§IV). Returns the run for programmatic assertions.
func faultScenario(w io.Writer, scenario string, duration float64, seed int64) (*core.RunResult, error) {
	fc, err := faults.Scenario(scenario, seed, duration)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultRunConfig(render.AppPlatformer, perfmodel.Desktop)
	cfg.Duration = duration
	cfg.Faults = faults.Generate(fc)
	res := core.Run(cfg)

	fmt.Fprintf(w, "Fault scenario %q (seed %d, %.0f s virtual, Platformer on desktop)\n",
		scenario, seed, duration)
	fmt.Fprintf(w, "Schedule fingerprint: %016x\n\n", cfg.Faults.Fingerprint())
	RenderFaultReport(w, res)
	return res, nil
}

// RenderFaultReport renders a run's FaultReport as tables; no-op when the
// run had no fault schedule.
func RenderFaultReport(w io.Writer, res *core.RunResult) {
	rep := res.Faults
	if rep == nil {
		return
	}
	t := &telemetry.Table{
		Title: "Fault windows: MTP impact and recovery",
		Header: []string{"Fault", "Component", "Start s", "Dur ms",
			"MTP before", "MTP during", "MTP after", "Stale peak ms", "Recovery ms"},
	}
	for _, wr := range rep.Windows {
		comp := wr.Window.Component
		if comp == "" {
			comp = "-"
		}
		rec := "n/a"
		if wr.RecoverySec >= 0 {
			rec = fmt.Sprintf("%.1f", wr.RecoverySec*1000)
		}
		t.AddRow(string(wr.Window.Kind), comp,
			f2(wr.Window.Start),
			fmt.Sprintf("%.0f", wr.Window.Duration()*1000),
			mtpCell(wr.MTPBefore), mtpCell(wr.MTPDuring), mtpCell(wr.MTPAfter),
			fmt.Sprintf("%.0f", wr.StalenessPeakMs), rec)
	}
	t.Render(w)

	fmt.Fprintln(w)
	var comps []string
	for c := range rep.SensorDrops {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(w, "Suppressed %s releases: %d\n", c, rep.SensorDrops[c])
	}
	comps = comps[:0]
	for c := range rep.Restarts {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(w, "Restarts of %s: %d\n", c, rep.Restarts[c])
	}
	if n := len(rep.UncertaintyM.Values); n > 0 {
		peak := 0.0
		for _, v := range rep.UncertaintyM.Values {
			if v > peak {
				peak = v
			}
		}
		fmt.Fprintf(w, "Dead-reckoning uncertainty peak: %.1f cm (1-sigma, %d samples)\n", 100*peak, n)
	}
}

// mtpCell formats one MTP summary cell, tolerating empty windows.
func mtpCell(s telemetry.Summary) string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.Std)
}

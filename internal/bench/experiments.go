// Package bench regenerates every table and figure of the paper's
// evaluation (§IV): each Experiment runs the necessary integrated or
// standalone workloads and renders the result as text tables (and,
// internally, structured data the tests assert the paper's shapes on).
package bench

import (
	"fmt"
	"io"
	"sort"

	"illixr/internal/config"
	"illixr/internal/core"
	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/telemetry"
)

// evalMatrix holds the 4-app × 3-platform integrated results that Figs 3–7
// and Table IV are derived from.
type evalMatrix struct {
	Duration float64
	Results  map[string]map[string]*core.RunResult // platform → app → result
}

// runMatrix executes the full evaluation matrix (12 integrated runs).
func runMatrix(duration float64) *evalMatrix {
	m := &evalMatrix{Duration: duration, Results: map[string]map[string]*core.RunResult{}}
	for _, plat := range perfmodel.Platforms {
		m.Results[plat.Name] = map[string]*core.RunResult{}
		for _, app := range render.AllApps {
			cfg := core.DefaultRunConfig(app, plat)
			cfg.Duration = duration
			m.Results[plat.Name][string(app)] = core.Run(cfg)
		}
	}
	return m
}

// get returns one cell.
func (m *evalMatrix) get(platform string, app render.AppName) *core.RunResult {
	return m.Results[platform][string(app)]
}

// appLabel maps app names to the paper's single-letter labels.
func appLabel(app render.AppName) string {
	switch app {
	case render.AppSponza:
		return "S"
	case render.AppMaterials:
		return "M"
	case render.AppPlatformer:
		return "P"
	default:
		return "AR"
	}
}

// Table1 renders Table I (ideal vs state-of-the-art requirements).
func Table1(w io.Writer) {
	t := &telemetry.Table{
		Title:  "Table I: ideal requirements of VR and AR vs state-of-the-art devices",
		Header: []string{"Metric", "Varjo VR-3", "Ideal VR", "HoloLens 2", "Ideal AR"},
	}
	for _, r := range config.Requirements() {
		t.AddRow(r.Metric, r.VarjoVR3, r.IdealVR, r.HoloLens2, r.IdealAR)
	}
	t.Render(w)
}

// Table2 renders Table II (component algorithms and implementations).
func Table2(w io.Writer) {
	t := &telemetry.Table{
		Title:  "Table II: ILLIXR component algorithms (Go reproduction)",
		Header: []string{"Pipeline", "Component", "Algorithm", "Detailed(*)"},
	}
	for _, c := range config.Components() {
		star := ""
		if c.Detailed {
			star = "*"
		}
		t.AddRow(c.Pipeline, c.Component, c.Algorithm, star)
	}
	t.Render(w)
}

// Table3 renders Table III (tuned system parameters).
func Table3(w io.Writer) {
	p := config.Default()
	camMs, imuMs, dispMs, audMs := p.Deadlines()
	t := &telemetry.Table{
		Title:  "Table III: key tuned ILLIXR parameters",
		Header: []string{"Component", "Parameter", "Tuned", "Deadline"},
	}
	t.AddRow("Camera (VIO)", "Frame rate 15-100 Hz", fmt.Sprintf("%.0f Hz", p.CameraRateHz), fmt.Sprintf("%.1f ms", camMs))
	t.AddRow("", "Resolution VGA-2K", fmt.Sprintf("%dx%d", p.CameraWidth, p.CameraHeight), "-")
	t.AddRow("", "Exposure 0.2-20 ms", fmt.Sprintf("%.0f ms", p.CameraExposureMs), "-")
	t.AddRow("IMU (Integrator)", "Frame rate <=800 Hz", fmt.Sprintf("%.0f Hz", p.IMURateHz), fmt.Sprintf("%.0f ms", imuMs))
	t.AddRow("Display (Visual, App)", "Frame rate 30-144 Hz", fmt.Sprintf("%.0f Hz", p.DisplayRateHz), fmt.Sprintf("%.2f ms", dispMs))
	t.AddRow("", "Resolution <=2K", fmt.Sprintf("%dx%d", p.DisplayWidth, p.DisplayHeight), "-")
	t.AddRow("", "Field-of-view <=180", fmt.Sprintf("%.0f deg", p.FovDegrees), "-")
	t.AddRow("Audio (Enc, Playback)", "Frame rate 48-96 Hz", fmt.Sprintf("%.0f Hz", p.AudioRateHz), fmt.Sprintf("%.1f ms", audMs))
	t.AddRow("", "Block size 256-2048", fmt.Sprintf("%d", p.AudioBlockSize), "-")
	t.Render(w)
}

// fig3 renders the per-component achieved frame rates (Fig 3).
func fig3(w io.Writer, m *evalMatrix) {
	for _, plat := range perfmodel.Platforms {
		t := &telemetry.Table{
			Title:  fmt.Sprintf("Fig 3 (%s): average frame rate per component (achieved / target Hz)", plat.Name),
			Header: []string{"Component", "Sponza", "Materials", "Platformer", "AR Demo", "Target"},
		}
		for _, c := range core.Components {
			row := []string{c}
			var target float64
			for _, app := range render.AllApps {
				res := m.get(plat.Name, app)
				row = append(row, fmt.Sprintf("%.1f", res.FrameRateHz[c]))
				target = res.TargetHz[c]
			}
			row = append(row, fmt.Sprintf("%.0f", target))
			t.AddRow(row...)
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
}

// fig4 renders the per-frame execution-time timeline summary for
// Platformer on the desktop (Fig 4), plus a CSV-ready series count.
func fig4(w io.Writer, m *evalMatrix) {
	res := m.get(perfmodel.Desktop.Name, render.AppPlatformer)
	t := &telemetry.Table{
		Title:  "Fig 4: per-frame execution time, Platformer on desktop (ms)",
		Header: []string{"Component", "mean", "std", "min", "max", "CoV", "frames"},
	}
	for _, c := range core.Components {
		s := telemetry.Summarize(res.ExecMs[c])
		cov := 0.0
		if s.Mean > 0 {
			cov = s.Std / s.Mean
		}
		t.AddRow(c, f2(s.Mean), f2(s.Std), f2(s.Min), f2(s.Max), f2(cov), fmt.Sprint(s.N))
	}
	t.Render(w)
}

// fig5 renders the CPU-cycle contribution per component (Fig 5).
func fig5(w io.Writer, m *evalMatrix) {
	t := &telemetry.Table{
		Title:  "Fig 5: contribution to CPU time per component (%)",
		Header: []string{"Platform", "App", "Cam", "VIO", "IMU", "Integ", "App.", "Reproj", "Play", "Enc"},
	}
	order := []string{
		core.CompCamera, core.CompVIO, core.CompIMU, core.CompIntegrator,
		core.CompApp, core.CompReproj, core.CompAudioPlay, core.CompAudioEnc,
	}
	for _, plat := range perfmodel.Platforms {
		for _, app := range render.AllApps {
			res := m.get(plat.Name, app)
			row := []string{plat.Name, appLabel(app)}
			for _, c := range order {
				row = append(row, fmt.Sprintf("%.1f", 100*res.CPUShare[c]))
			}
			t.AddRow(row...)
		}
	}
	t.Render(w)
}

// fig6 renders total power and the rail breakdown (Fig 6a/6b).
func fig6(w io.Writer, m *evalMatrix) {
	t := &telemetry.Table{
		Title:  "Fig 6: total power and rail breakdown",
		Header: []string{"Platform", "App", "Total W", "CPU%", "GPU%", "DDR%", "SoC%", "Sys%", "Gap vs AR ideal"},
	}
	for _, plat := range perfmodel.Platforms {
		for _, app := range render.AllApps {
			res := m.get(plat.Name, app)
			cpu, gpu, ddr, soc, sys := res.Power.Shares()
			t.AddRow(plat.Name, appLabel(app),
				fmt.Sprintf("%.1f", res.Power.Total()),
				f1(100*cpu), f1(100*gpu), f1(100*ddr), f1(100*soc), f1(100*sys),
				fmt.Sprintf("%.0fx", res.Power.Total()/config.IdealPowerARW))
		}
	}
	t.Render(w)
}

// fig7 renders the per-frame MTP timeline summaries for Platformer across
// platforms (Fig 7).
func fig7(w io.Writer, m *evalMatrix) {
	t := &telemetry.Table{
		Title:  "Fig 7: motion-to-photon latency per frame, Platformer (ms)",
		Header: []string{"Platform", "mean", "std", "min", "max", "p99", "samples"},
	}
	for _, plat := range perfmodel.Platforms {
		res := m.get(plat.Name, render.AppPlatformer)
		s := res.MTPSummary()
		t.AddRow(plat.Name, f2(s.Mean), f2(s.Std), f2(s.Min), f2(s.Max), f2(s.P99), fmt.Sprint(s.N))
	}
	t.Render(w)
}

// table4 renders MTP mean±std for every app and platform (Table IV).
func table4(w io.Writer, m *evalMatrix) {
	t := &telemetry.Table{
		Title:  "Table IV: motion-to-photon latency (ms, mean±std; VR target 20, AR target 5)",
		Header: []string{"Platform", "Sponza", "Materials", "Platformer", "AR Demo"},
	}
	for _, plat := range perfmodel.Platforms {
		row := []string{plat.Name}
		for _, app := range render.AllApps {
			row = append(row, m.get(plat.Name, app).MTPSummary().String())
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// table5 runs the offline image-quality pipeline for Sponza on all
// platforms (Table V). Separate from the matrix because it is expensive.
func table5(w io.Writer, duration float64, frames int) map[string]*core.RunResult {
	t := &telemetry.Table{
		Title:  "Table V: image-quality metrics for Sponza (mean±std)",
		Header: []string{"Metric", "Desktop", "Jetson-HP", "Jetson-LP"},
	}
	out := map[string]*core.RunResult{}
	var ssimRow, flipRow []string
	ssimRow = append(ssimRow, "SSIM")
	flipRow = append(flipRow, "1-FLIP")
	for _, plat := range perfmodel.Platforms {
		cfg := core.DefaultRunConfig(render.AppSponza, plat)
		cfg.Duration = duration
		cfg.QualityFrames = frames
		cfg.QualityW, cfg.QualityH = 256, 144
		res := core.Run(cfg)
		out[plat.Name] = res
		ssimRow = append(ssimRow, fmt.Sprintf("%.2f±%.2f", res.SSIM.Mean, res.SSIM.Std))
		flipRow = append(flipRow, fmt.Sprintf("%.2f±%.2f", res.OneMinusFLIP.Mean, res.OneMinusFLIP.Std))
	}
	t.AddRow(ssimRow...)
	t.AddRow(flipRow...)
	t.Render(w)
	return out
}

// Fig8 renders the IPC and cycle breakdown per component (Fig 8).
func Fig8(w io.Writer) {
	t := &telemetry.Table{
		Title:  "Fig 8: cycle breakdown and IPC of ILLIXR components (model)",
		Header: []string{"Component", "IPC", "Retiring%", "BadSpec%", "Frontend%", "Backend%"},
	}
	for _, mu := range perfmodel.MicroarchAll() {
		t.AddRow(mu.Component, fmt.Sprintf("%.1f", mu.IPC),
			f1(mu.RetiringPct), f1(mu.BadSpecPct), f1(mu.FrontendPct), f1(mu.BackendPct))
	}
	t.Render(w)
}

// TaskShare is a measured per-task time share.
type TaskShare struct {
	Task  string
	Ms    float64
	Share float64
}

// shares converts a per-task cost map into sorted share rows.
func shares(tasks map[string]float64, order []string) []TaskShare {
	total := 0.0
	for _, v := range tasks {
		total += v
	}
	var out []TaskShare
	if len(order) > 0 {
		for _, k := range order {
			out = append(out, TaskShare{Task: k, Ms: tasks[k], Share: tasks[k] / total})
		}
		return out
	}
	keys := make([]string, 0, len(tasks))
	for k := range tasks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, TaskShare{Task: k, Ms: tasks[k], Share: tasks[k] / total})
	}
	return out
}

func renderShares(w io.Writer, title string, rows []TaskShare) {
	t := &telemetry.Table{
		Title:  title,
		Header: []string{"Task", "ms/frame", "share"},
	}
	for _, r := range rows {
		t.AddRow(r.Task, f2(r.Ms), fmt.Sprintf("%4.1f%% %s", 100*r.Share, telemetry.Bar(r.Share, 24)))
	}
	t.Render(w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

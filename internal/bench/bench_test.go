package bench

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/vio"
)

var (
	matrixOnce sync.Once
	matrix     *evalMatrix
)

// sharedMatrix runs the 12-cell evaluation once for all shape tests.
func sharedMatrix() *evalMatrix {
	matrixOnce.Do(func() { matrix = runMatrix(6) })
	return matrix
}

func TestStaticTablesRender(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	Table2(&buf)
	Table3(&buf)
	Fig8(&buf)
	out := buf.String()
	for _, want := range []string{
		"Motion-to-photon latency", "VIO", "15 Hz", "Audio Playback", "3.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("static tables missing %q", want)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	m := sharedMatrix()
	var buf bytes.Buffer
	fig3(&buf, m)
	if !strings.Contains(buf.String(), "Fig 3 (jetson-lp)") {
		t.Fatal("missing jetson-lp section")
	}
	// audio meets target everywhere
	for _, plat := range perfmodel.Platforms {
		for _, app := range render.AllApps {
			res := m.get(plat.Name, app)
			if res.FrameRateHz["audio_encoding"] < 0.97*48 {
				t.Errorf("%s/%s: audio encoding %.1f Hz", plat.Name, app, res.FrameRateHz["audio_encoding"])
			}
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	m := sharedMatrix()
	// Table IV: MTP increases monotonically desktop -> HP -> LP for every app
	for _, app := range render.AllApps {
		d := m.get("desktop", app).MTPSummary().Mean
		hp := m.get("jetson-hp", app).MTPSummary().Mean
		lp := m.get("jetson-lp", app).MTPSummary().Mean
		if !(d < hp && hp < lp) {
			t.Errorf("%s: MTP not monotone: %.1f %.1f %.1f", app, d, hp, lp)
		}
		if d > 4.5 {
			t.Errorf("%s: desktop MTP %.1f above paper band", app, d)
		}
	}
	var buf bytes.Buffer
	table4(&buf, m)
	if !strings.Contains(buf.String(), "±") {
		t.Error("Table IV not rendered")
	}
}

func TestFig5Fig6Fig7Render(t *testing.T) {
	m := sharedMatrix()
	var buf bytes.Buffer
	fig4(&buf, m)
	fig5(&buf, m)
	fig6(&buf, m)
	fig7(&buf, m)
	out := buf.String()
	for _, want := range []string{"Fig 4", "Fig 5", "Fig 6", "Fig 7", "Gap vs AR ideal"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTable6VIOShares(t *testing.T) {
	sharesV, perFrame, ate := vioStandalone(8, vio.DefaultParams())
	if len(sharesV) != 7 {
		t.Fatalf("VIO tasks = %d", len(sharesV))
	}
	get := func(task string) float64 {
		for _, s := range sharesV {
			if s.Task == task {
				return s.Share
			}
		}
		t.Fatalf("missing task %s", task)
		return 0
	}
	// Paper Table VI shares: MSCKF update is the largest single task
	// (23 %), SLAM update next (20 %), marginalization smallest (5 %).
	if get("MSCKF update") < get("Marginalization") {
		t.Error("MSCKF update share below marginalization")
	}
	if get("SLAM update") < 0.05 {
		t.Errorf("SLAM update share %.2f too small", get("SLAM update"))
	}
	// no single task dominates (§IV-B1 "Task Dominance")
	for _, s := range sharesV {
		if s.Share > 0.6 {
			t.Errorf("task %s dominates with %.0f%%", s.Task, 100*s.Share)
		}
	}
	// input-dependent variability
	if len(perFrame) == 0 {
		t.Fatal("no per-frame costs")
	}
	if ate > 0.05 {
		t.Errorf("standalone VIO ATE %.3f", ate)
	}
}

func TestTable6ReconGrowthAndSpikes(t *testing.T) {
	sharesR, series, loops := reconStandalone(56)
	if len(sharesR) != 5 {
		t.Fatalf("recon tasks = %d", len(sharesR))
	}
	// Map fusion cost grows with map size; later frames cost more.
	early := series[2]
	late := series[len(series)-2]
	if late <= early {
		t.Errorf("recon cost did not grow: %.2f -> %.2f", early, late)
	}
	if loops == 0 {
		t.Error("no loop closures on a revisiting trajectory")
	}
	// loop-closure spikes: max >> median (order-of-magnitude spikes, §IV-B1)
	maxV, med := 0.0, series[len(series)/2]
	for _, v := range series {
		maxV = math.Max(maxV, v)
	}
	if maxV < 3*med {
		t.Errorf("no execution-time spike: max %.1f vs median %.1f", maxV, med)
	}
}

func TestTable7Shares(t *testing.T) {
	reproj := reprojectionStandalone()
	// Paper: OpenGL state update is the biggest reprojection task (54 %).
	if !(reproj[1].Share > reproj[0].Share) {
		t.Error("OpenGL state update not above FBO")
	}
	enc, play := audioStandalone()
	if enc[1].Task != "Encoding" || enc[1].Share < 0.7 {
		t.Errorf("encoding share %.2f (paper: 81%%)", enc[1].Share)
	}
	if play[3].Task != "Binauralization" || play[3].Share < 0.5 {
		t.Errorf("binauralization share %.2f (paper: 60%%)", play[3].Share)
	}
	holo, res := hologramStandalone()
	if holo[0].Share < holo[2].Share {
		t.Error("hologram-to-depth should exceed depth-to-hologram (57% vs 43%)")
	}
	if holo[1].Share > 0.01 {
		t.Errorf("sum task share %.3f (paper: <0.1%%)", holo[1].Share)
	}
	if res.Uniformity < 0.7 {
		t.Errorf("hologram uniformity %.2f", res.Uniformity)
	}
}

func TestAblationShape(t *testing.T) {
	var buf bytes.Buffer
	ateFull, ateFast, ratio := AblationVIO(&buf, 8)
	// §V-E: the expensive configuration is more accurate, at ≳1.2× cost.
	if ateFull >= ateFast {
		t.Errorf("high-accuracy ATE %.3f not better than fast %.3f", ateFull, ateFast)
	}
	if ratio < 1.2 || ratio > 4 {
		t.Errorf("cost ratio %.2f outside plausible band", ratio)
	}
	if !strings.Contains(buf.String(), "ablation") {
		t.Error("ablation table not rendered")
	}
}

func TestTable5QualityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("quality pipeline is expensive")
	}
	var buf bytes.Buffer
	res := table5(&buf, 6, 4)
	d := res["desktop"].SSIM.Mean
	lp := res["jetson-lp"].SSIM.Mean
	if !(d > lp) {
		t.Errorf("SSIM desktop %.2f not above LP %.2f", d, lp)
	}
	if !strings.Contains(buf.String(), "Table V") {
		t.Error("Table V not rendered")
	}
}

func TestTable6Table7Render(t *testing.T) {
	var buf bytes.Buffer
	Table6(&buf, 6)
	Table7(&buf)
	out := buf.String()
	for _, want := range []string{"MSCKF update", "Map Fusion", "Binauralization", "Eye tracking"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

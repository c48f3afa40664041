package core

import (
	goruntime "runtime"
	"testing"

	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/runtime"
)

// waitGoroutines polls until the goroutine count is back at or below
// base (an exited goroutine leaves the count a moment after its last
// statement).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	waitFor(t, "the goroutine count to return to its baseline",
		func() bool { return goruntime.NumGoroutine() <= base })
}

// TestRunClosesQualityPool: the kernel pool the offline quality pipeline
// builds at Workers > 1 must not outlive the Run that built it.
func TestRunClosesQualityPool(t *testing.T) {
	base := goruntime.NumGoroutine()
	cfg := DefaultRunConfig(render.AppSponza, perfmodel.Desktop)
	cfg.Duration = 2
	cfg.QualityFrames = 2
	cfg.QualityW, cfg.QualityH = 96, 54
	cfg.System.Workers = 4
	if res := Run(cfg); res.SSIM.N == 0 {
		t.Fatal("no quality samples: the pool was never built")
	}
	waitGoroutines(t, base)
}

// TestAudioPluginStopClosesPool: Stop gives back the helpers Start's pool
// parked on the first parallel block.
func TestAudioPluginStopClosesPool(t *testing.T) {
	base := goruntime.NumGoroutine()
	p := &AudioPlugin{Workers: 4}
	if err := p.Start(runtime.NewLoader().Context()); err != nil {
		t.Fatal(err)
	}
	if l, r := p.ProcessBlock(0); len(l) != 1024 || len(r) != 1024 {
		t.Fatalf("block is %d/%d samples, want 1024", len(l), len(r))
	}
	if goruntime.NumGoroutine() <= base {
		t.Fatal("a 4-worker block parked no helper: nothing for Stop to give back")
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

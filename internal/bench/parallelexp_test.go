package bench

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestListScheduleMakespan(t *testing.T) {
	// one worker: makespan is the serial sum
	if got := listScheduleMakespan([]float64{1, 2, 3}, 1); got != 6 {
		t.Fatalf("1 worker: got %v, want 6", got)
	}
	// equal tiles divide evenly
	if got := listScheduleMakespan([]float64{1, 1, 1, 1}, 2); got != 2 {
		t.Fatalf("2 workers, 4 equal tiles: got %v, want 2", got)
	}
	// tile-order list scheduling: 3,1,1,1 on 2 workers → {3} and {1,1,1}
	if got := listScheduleMakespan([]float64{3, 1, 1, 1}, 2); got != 3 {
		t.Fatalf("imbalanced tiles: got %v, want 3", got)
	}
	// more workers than tiles: bounded by the largest tile
	if got := listScheduleMakespan([]float64{2, 1}, 8); got != 2 {
		t.Fatalf("excess workers: got %v, want 2", got)
	}
	if got := listScheduleMakespan(nil, 4); got != 0 {
		t.Fatalf("empty: got %v, want 0", got)
	}
}

func TestParallelExperimentShape(t *testing.T) {
	base := runtime.NumGoroutine()
	var buf bytes.Buffer
	rep := parallelExperiment(&buf, 4, 1)
	// every kernel's two pools are closed when its measurement returns (an
	// exited goroutine leaves the count a moment after its last statement)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the experiment, %d before it: a kernel pool was left open",
				runtime.NumGoroutine(), base)
		}
	}
	if rep.Workers != 4 {
		t.Fatalf("workers = %d, want 4", rep.Workers)
	}
	wantNames := []string{"reprojection", "render", "hologram", "ssim", "flip", "pyramid", "audio"}
	if len(rep.Kernels) != len(wantNames) {
		t.Fatalf("got %d kernels, want %d", len(rep.Kernels), len(wantNames))
	}
	names := map[string]bool{}
	for _, k := range rep.Kernels {
		names[k.Name] = true
		if k.SerialMsMean <= 0 || math.IsNaN(k.SerialMsMean) {
			t.Errorf("%s: serial mean %v not positive", k.Name, k.SerialMsMean)
		}
		if k.ModeledParallelMs <= 0 || k.ModeledParallelMs > k.SerialMsMean {
			t.Errorf("%s: modeled %v outside (0, serial=%v]", k.Name, k.ModeledParallelMs, k.SerialMsMean)
		}
		if k.Speedup < 1 {
			t.Errorf("%s: modeled speedup %v < 1", k.Name, k.Speedup)
		}
		if k.TilesPerIter < 2 {
			t.Errorf("%s: only %d tiles per iteration", k.Name, k.TilesPerIter)
		}
	}
	for _, want := range wantNames {
		if !names[want] {
			t.Errorf("missing kernel %q", want)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte("Parallel kernels")) {
		t.Error("report table not rendered")
	}
}

package hologram

import (
	"math"
	"runtime"
	"testing"
	"time"

	"illixr/internal/recycle"
)

func smallParams(iters int) Params {
	p := DefaultParams()
	p.Width, p.Height = 64, 64
	p.Iterations = iters
	return p
}

func TestGenerateSingleSpotHighAmplitude(t *testing.T) {
	p := smallParams(3)
	res := Generate(p, []Spot{{X: 1e-4, Y: 0, Z: 0, Intensity: 1}})
	// A single spot should converge to near-perfect focus (|V| → 1).
	if res.SpotAmplitude[0] < 0.95 {
		t.Errorf("single-spot amplitude %v", res.SpotAmplitude[0])
	}
	if res.Uniformity != 1 {
		t.Errorf("single-spot uniformity %v", res.Uniformity)
	}
}

func TestGSWImprovesUniformity(t *testing.T) {
	p := smallParams(1)
	spots := SpotsFromDepthPlanes(2, 4, 6e-4, 0.02)
	one := Generate(p, spots)
	p.Iterations = 8
	many := Generate(p, spots)
	if many.Uniformity <= one.Uniformity {
		t.Errorf("uniformity did not improve: %v -> %v", one.Uniformity, many.Uniformity)
	}
	if many.Uniformity < 0.8 {
		t.Errorf("converged uniformity %v too low", many.Uniformity)
	}
}

func TestPhaseRange(t *testing.T) {
	p := smallParams(4)
	res := Generate(p, SpotsFromDepthPlanes(1, 3, 5e-4, 0))
	for i, ph := range res.Phase {
		if ph < -math.Pi-1e-9 || ph > math.Pi+1e-9 {
			t.Fatalf("phase[%d] = %v out of range", i, ph)
		}
	}
}

func TestStatsCountOps(t *testing.T) {
	p := smallParams(2)
	spots := SpotsFromDepthPlanes(1, 2, 5e-4, 0)
	res := Generate(p, spots)
	n := p.Width * p.Height
	m := len(spots)
	// per iteration: forward m·n + backward n·m; plus final forward m·n
	want := p.Iterations*(2*m*n) + m*n
	if res.Stats.PixelSpotOps != want {
		t.Errorf("ops = %d, want %d", res.Stats.PixelSpotOps, want)
	}
	if res.Stats.Iterations != 2 {
		t.Errorf("iterations = %d", res.Stats.Iterations)
	}
}

func TestEmptyInputs(t *testing.T) {
	p := smallParams(2)
	res := Generate(p, nil)
	if len(res.SpotAmplitude) != 0 || res.Efficiency != 0 {
		t.Error("empty spots should be a no-op")
	}
}

func TestSpotsFromDepthPlanesLayout(t *testing.T) {
	spots := SpotsFromDepthPlanes(3, 4, 1e-3, 0.05)
	if len(spots) != 12 {
		t.Fatalf("%d spots", len(spots))
	}
	// depths span ±depthExtent/2
	minZ, maxZ := math.Inf(1), math.Inf(-1)
	for _, s := range spots {
		minZ = math.Min(minZ, s.Z)
		maxZ = math.Max(maxZ, s.Z)
	}
	if math.Abs(minZ+0.025) > 1e-9 || math.Abs(maxZ-0.025) > 1e-9 {
		t.Errorf("depth range [%v, %v]", minZ, maxZ)
	}
	if len(SpotsFromDepthPlanes(0, 5, 1, 1)) != 0 {
		t.Error("zero planes should yield no spots")
	}
}

func TestDeterminism(t *testing.T) {
	p := smallParams(3)
	spots := SpotsFromDepthPlanes(2, 3, 5e-4, 0.01)
	a := Generate(p, spots)
	b := Generate(p, spots)
	for i := range a.Phase {
		if a.Phase[i] != b.Phase[i] {
			t.Fatal("hologram not deterministic")
		}
	}
}

func TestWeightingBoostsDimSpot(t *testing.T) {
	// Give one spot a much larger desired intensity; after convergence its
	// amplitude must exceed the others'.
	p := smallParams(8)
	spots := []Spot{
		{X: 2e-4, Y: 0, Intensity: 1},
		{X: -2e-4, Y: 0, Intensity: 1},
		{X: 0, Y: 2e-4, Intensity: 1},
	}
	res := Generate(p, spots)
	// equal intensities → roughly equal amplitudes
	mean := (res.SpotAmplitude[0] + res.SpotAmplitude[1] + res.SpotAmplitude[2]) / 3
	for i, a := range res.SpotAmplitude {
		if math.Abs(a-mean)/mean > 0.1 {
			t.Errorf("spot %d amplitude %v deviates from mean %v", i, a, mean)
		}
	}
}

// TestGenerateGivesWorkersBack: Generate builds its own pool at
// Workers > 1 and must return that pool's helpers with the result.
func TestGenerateGivesWorkersBack(t *testing.T) {
	p := DefaultParams()
	p.Width, p.Height = 128, 128 // four holoTile tiles: every worker gets one
	p.Iterations = 1
	p.Workers = 4
	spots := SpotsFromDepthPlanes(2, 2, 6e-4, 0.02)
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		r := Generate(p, spots)
		ReleaseResult(&r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("8 Generate calls at Workers=4 left %d goroutines over a baseline of %d", got, base)
	}
}

// ReleaseResult returns the hologram's buffers to the shared pools. The
// Result must not be used afterwards (DESIGN.md §10).
func ReleaseResult(r *Result) {
	recycle.F64.Put(r.Phase)
	recycle.F64.Put(r.SpotAmplitude)
	r.Phase, r.SpotAmplitude = nil, nil
}

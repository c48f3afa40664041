package perfmodel

import (
	"math"
	"testing"

	"illixr/internal/reconstruct"
	"illixr/internal/render"
	"illixr/internal/reprojection"
	"illixr/internal/vio"
)

func TestPlatformOrdering(t *testing.T) {
	if !(Desktop.CPUSpeed > JetsonHP.CPUSpeed && JetsonHP.CPUSpeed > JetsonLP.CPUSpeed) {
		t.Error("CPU speed ordering broken")
	}
	if !(Desktop.GPUSpeed > JetsonHP.GPUSpeed && JetsonHP.GPUSpeed > JetsonLP.GPUSpeed) {
		t.Error("GPU speed ordering broken")
	}
}

func TestPlatformByName(t *testing.T) {
	for _, p := range Platforms {
		got, ok := PlatformByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Errorf("lookup %s failed", p.Name)
		}
	}
	if _, ok := PlatformByName("nope"); ok {
		t.Error("phantom platform")
	}
}

func TestCostOnPlatformScales(t *testing.T) {
	c := Cost{CPUms: 10, GPUms: 5}
	cpu, gpu := c.OnPlatform(JetsonHP)
	if math.Abs(cpu-10/JetsonHP.CPUSpeed) > 1e-12 || math.Abs(gpu-5/JetsonHP.GPUSpeed) > 1e-12 {
		t.Errorf("scaled cost %v %v", cpu, gpu)
	}
	if c.Total() != 15 {
		t.Errorf("total %v", c.Total())
	}
}

func TestVIOCostTaskSumEqualsTotal(t *testing.T) {
	st := vio.FrameStats{
		DetectedFeatures: 5, TrackedFeatures: 60, InitFeatures: 4,
		MSCKFRows: 20, SLAMRows: 40, MarginalizedOps: 1, StateDim: 210,
	}
	c := VIOCost(st)
	sum := 0.0
	for _, v := range c.Tasks {
		sum += v
	}
	if math.Abs(sum-c.CPUms) > 1e-9 {
		t.Errorf("tasks sum %v != CPU %v", sum, c.CPUms)
	}
	if len(c.Tasks) != 7 {
		t.Errorf("VIO tasks = %d, Table VI wants 7", len(c.Tasks))
	}
	// more work must cost more
	st2 := st
	st2.MSCKFRows = 80
	if VIOCost(st2).Total() <= c.Total() {
		t.Error("cost not monotone in MSCKF rows")
	}
}

func TestReprojectionCostResolutionScaling(t *testing.T) {
	small := ReprojectionCost(reprojection.Stats{Pixels: 1000_000, MeshVertices: 3000, StateOps: 3})
	big := ReprojectionCost(reprojection.Stats{Pixels: 4000_000, MeshVertices: 3000, StateOps: 3})
	if big.GPUms <= small.GPUms {
		t.Error("GPU cost not monotone in pixels")
	}
	if big.CPUms != small.CPUms {
		t.Error("driver cost should be resolution independent")
	}
}

func TestAudioCostShares(t *testing.T) {
	enc := AudioEncodeCost(2)
	sum := 0.0
	for _, v := range enc.Tasks {
		sum += v
	}
	if math.Abs(sum-enc.CPUms) > 1e-9 {
		t.Error("encode task split inconsistent")
	}
	play := AudioPlaybackCost(12)
	if play.Tasks["Binauralization"]/play.CPUms < 0.55 {
		t.Error("binauralization below paper's 60% share")
	}
}

func TestReconstructionLoopClosureSpike(t *testing.T) {
	base := reconstruct.FrameStats{
		DepthPixels: 7000, MapPixels: 7000, ICPPairs: 1700,
		SurfelsPredicted: 5000, SurfelsFused: 1500, SurfelsAdded: 200, MapSize: 20000,
	}
	normal := ReconstructionCost(base)
	loop := base
	loop.LoopClosure = true
	loop.DeformSurfels = 20000
	spiked := ReconstructionCost(loop)
	if spiked.Total() < 3*normal.Total() {
		t.Errorf("loop closure spike too small: %v vs %v", spiked.Total(), normal.Total())
	}
}

func TestAppCostMonotone(t *testing.T) {
	light := AppCost(render.FrameStats{ShadingCostWeight: 100000, TrianglesSubmitted: 1000, PhysicsOps: 10})
	heavy := AppCost(render.FrameStats{ShadingCostWeight: 10000000, TrianglesSubmitted: 50000, PhysicsOps: 200})
	if heavy.Total() <= light.Total() {
		t.Error("app cost not monotone in work")
	}
}

func TestMicroarchAnchors(t *testing.T) {
	// Fig 8 anchored values straight from the paper's text.
	anchors := map[string]float64{
		"VIO": 2.2, "Reprojection": 0.3, "Audio Encoding": 2.5, "Audio Playback": 3.5,
	}
	for _, m := range MicroarchAll() {
		if want, ok := anchors[m.Component]; ok && m.IPC != want {
			t.Errorf("%s IPC = %v, want %v", m.Component, m.IPC, want)
		}
		delete(anchors, m.Component)
	}
	if len(anchors) != 0 {
		t.Errorf("components missing: %v", anchors)
	}
	// breakdowns sum to 100
	for _, m := range MicroarchAll() {
		sum := m.RetiringPct + m.BadSpecPct + m.FrontendPct + m.BackendPct
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("%s breakdown sums to %v", m.Component, sum)
		}
	}
	// IPC extremes of §IV-B1: 0.3 (reprojection) to 3.5 (audio playback)
	lo, hi := math.Inf(1), 0.0
	for _, m := range MicroarchAll() {
		lo = math.Min(lo, m.IPC)
		hi = math.Max(hi, m.IPC)
	}
	if lo != 0.3 || hi != 3.5 {
		t.Errorf("IPC range [%v, %v]", lo, hi)
	}
}

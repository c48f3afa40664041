package core

import (
	"math"

	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/sensors"
	"illixr/internal/vio"
)

// perception is the offline perception-pipeline run shared by every
// platform cell: the real VIO on the real synthetic dataset. Work
// statistics drive the cost model; estimates drive the QoE pipeline.
type perception struct {
	ds     *sensors.Dataset
	runner *vio.Runner
}

// runPerception generates the dataset and runs VIO once.
func runPerception(cfg RunConfig) *perception {
	dcfg := sensors.DefaultDatasetConfig()
	dcfg.Duration = cfg.Duration
	dcfg.IMURateHz = cfg.System.IMURateHz
	dcfg.CamRateHz = cfg.System.CameraRateHz
	dcfg.Seed = cfg.Seed
	dcfg.MaxFeats = cfg.VIO.MaxFeatures
	ds := sensors.GenerateDataset(dcfg)
	r := vio.NewRunner(ds, cfg.VIO, vio.NewGeometricFrontend(ds.Cam, cfg.VIO.MaxFeatures))
	r.Run(ds)
	return &perception{ds: ds, runner: r}
}

// vioCost returns the modelled cost of VIO frame k (clamped).
func (p *perception) vioCost(k int) perfmodel.Cost {
	if len(p.runner.Estimates) == 0 {
		return perfmodel.Cost{}
	}
	if k < 0 {
		k = 0
	}
	if k >= len(p.runner.Estimates) {
		k = len(p.runner.Estimates) - 1
	}
	return perfmodel.VIOCost(p.runner.Estimates[k].Stats)
}

// appProfile holds sampled application render costs along the trajectory.
// Probe renders run at reduced resolution; fragment counts are scaled to
// the display resolution so the cost model sees display-sized work.
type appProfile struct {
	sampleDt float64
	costs    []perfmodel.Cost
	scene    *render.Scene
}

const (
	probeW = 256
	probeH = 144
)

// buildAppProfile renders the scene at sampled trajectory poses.
func buildAppProfile(cfg RunConfig, ds *sensors.Dataset) *appProfile {
	scene := render.BuildScene(cfg.App, cfg.Seed)
	samples := 40
	prof := &appProfile{
		sampleDt: cfg.Duration / float64(samples-1),
		scene:    scene,
	}
	scale := float64(cfg.System.DisplayWidth*cfg.System.DisplayHeight) / float64(probeW*probeH)
	r := render.NewRenderer(probeW, probeH)
	r.SetPool(nil) // stats-only probe: serial, so it parks no helper goroutines
	for i := 0; i < samples; i++ {
		t := float64(i) * prof.sampleDt
		r.Stats = render.FrameStats{}
		r.RenderFrame(scene, ds.Traj.Pose(t), t)
		st := r.Stats
		// scale fragment work to display resolution
		st.FragmentsShaded = int(float64(st.FragmentsShaded) * scale)
		st.ShadingCostWeight = int(float64(st.ShadingCostWeight) * scale)
		prof.costs = append(prof.costs, perfmodel.AppCost(st))
	}
	return prof
}

// costAt interpolates the app cost at time t with deterministic per-frame
// jitter (scene animation, driver variance).
func (p *appProfile) costAt(t float64, k int) perfmodel.Cost {
	if len(p.costs) == 0 {
		return perfmodel.Cost{}
	}
	x := t / p.sampleDt
	i := int(math.Floor(x))
	if i < 0 {
		i = 0
	}
	if i >= len(p.costs)-1 {
		i = len(p.costs) - 2
		if i < 0 {
			return p.costs[0]
		}
	}
	f := x - float64(i)
	c := perfmodel.Cost{
		CPUms: p.costs[i].CPUms*(1-f) + p.costs[i+1].CPUms*f,
		GPUms: p.costs[i].GPUms*(1-f) + p.costs[i+1].GPUms*f,
	}
	j := jitter(k)
	c.CPUms *= 1 + 0.05*j
	c.GPUms *= 1 + 0.08*j
	return c
}

// jitter returns a deterministic pseudo-random value in [-1, 1] from an
// instance index (splitmix-style hash).
func jitter(k int) float64 {
	x := uint64(k)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<52) - 1
}

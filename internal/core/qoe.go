package core

import (
	"sort"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/quality"
	"illixr/internal/render"
	"illixr/internal/reprojection"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// reprojStatsFor models one reprojection pass at display resolution for
// the cost model.
func reprojStatsFor(cfg RunConfig) reprojection.Stats {
	mesh := reprojection.DefaultParams().MeshSize + 1
	return reprojection.Stats{
		StateOps:     3,
		Pixels:       cfg.System.DisplayWidth * cfg.System.DisplayHeight,
		MeshVertices: 3 * mesh * mesh,
	}
}

// appEvent is a completed application frame.
type appEvent = struct {
	start, finish float64
	k             int
}

// warpEvent is a completed reprojection pass.
type warpEvent = struct {
	start, finish, display float64
}

// fastPoser reconstructs the perception pipeline's fast-pose output as the
// platform actually produced it: the freshest *completed* VIO estimate
// (per the scheduler) propagated through the real IMU stream with RK4.
type fastPoser struct {
	perc    *perception
	vioDone []vioCompletion
}

// poseAt returns the platform's fast-pose estimate for query time t.
func (fp *fastPoser) poseAt(t float64) mathx.Pose {
	// newest VIO completion available at t
	i := sort.Search(len(fp.vioDone), func(i int) bool { return fp.vioDone[i].finish > t })
	if i == 0 {
		// before the first VIO output: ground-truth initialization
		return fp.perc.ds.GroundTruthAt(0)
	}
	frame := fp.vioDone[i-1].frame
	ests := fp.perc.runner.Estimates
	if frame >= len(ests) {
		frame = len(ests) - 1
	}
	return vio.Reanchor(ests[frame], fp.perc.ds.IMU, t)
}

// evaluateQuality runs the offline image-quality pipeline of §III-E: the
// displayed image (application frame rendered at the platform's estimated
// pose, reprojected with the platform's fresh pose, possibly stale due to
// dropped frames) is compared against the idealized configuration that
// renders with ground-truth poses on an ideal schedule.
func evaluateQuality(cfg RunConfig, perc *perception, appProf *appProfile,
	vioDone []vioCompletion, appDone []appEvent, warpDone []warpEvent,
	res *RunResult) {
	if len(warpDone) == 0 || len(appDone) == 0 {
		return
	}
	fp := &fastPoser{perc: perc, vioDone: vioDone}
	w, h := cfg.QualityW, cfg.QualityH
	if w <= 0 || h <= 0 {
		w, h = 320, 180
	}
	rp := reprojection.DefaultParams()
	rp.Translational = false
	warp := reprojection.New(rp)
	// Shared worker pool for the quality kernels (nil = serial). Results
	// are bitwise identical for every worker count (DESIGN.md §8).
	var pool *parallel.Pool
	if cfg.System.Workers > 1 {
		pool = parallel.New(cfg.System.Workers)
		defer pool.Close()
		pool.Instrument(cfg.Metrics)
		warp.SetPool(pool)
	}
	renderer := render.NewRenderer(w, h)
	renderer.SetPool(pool)
	vsync := 1 / cfg.System.DisplayRateHz

	// sample display events evenly, skipping the warm-up
	n := cfg.QualityFrames
	first := len(warpDone) / 10
	if first < 1 {
		first = 1
	}
	stride := (len(warpDone) - first) / n
	if stride < 1 {
		stride = 1
	}
	var ssims, flips []float64
	for i := first; i < len(warpDone) && len(ssims) < n; i += stride {
		wd := warpDone[i]
		// the application frame on screen: newest completed before the
		// reprojection pass started
		j := sort.Search(len(appDone), func(j int) bool { return appDone[j].finish > wd.start })
		if j == 0 {
			continue
		}
		af := appDone[j-1]
		renderPose := fp.poseAt(af.start)
		freshPose := fp.poseAt(wd.start)
		actualSrc := renderer.RenderFrame(appProf.scene, renderPose, af.start).Clone()
		actual := warp.Reproject(actualSrc, renderPose, freshPose)

		// idealized system: ground-truth poses, ideal schedule (app frame
		// exactly one display period old)
		idealT := wd.display - vsync
		idealRenderPose := perc.ds.GroundTruthAt(idealT)
		idealFresh := perc.ds.GroundTruthAt(wd.display)
		idealSrc := renderer.RenderFrame(appProf.scene, idealRenderPose, idealT).Clone()
		ideal := warp.Reproject(idealSrc, idealRenderPose, idealFresh)

		ssims = append(ssims, quality.SSIMRGBPool(pool, actual, ideal))
		flips = append(flips, quality.OneMinusFLIPPool(pool, actual, ideal))
		imgproc.PutRGB(actualSrc)
		imgproc.PutRGB(idealSrc)
		imgproc.PutRGB(actual)
		imgproc.PutRGB(ideal)
	}
	res.SSIM = telemetry.Summarize(ssims)
	res.OneMinusFLIP = telemetry.Summarize(flips)
}

package core

import (
	"math"
	"sort"

	"illixr/internal/faults"
	"illixr/internal/perfmodel"
	"illixr/internal/power"
	"illixr/internal/simsched"
	"illixr/internal/telemetry"
)

// poseStamp records when a fast-pose estimate became available and which
// IMU sample time it reflects.
type poseStamp struct {
	available float64 // integrator completion time
	sampleT   float64 // IMU sample timestamp the pose is based on
	// span is the integrator span that produced this pose (zero when span
	// collection is off) — the causal link that lets a display frame walk
	// back to the IMU sample and camera frame behind its pose.
	span telemetry.SpanRef
}

// vioCompletion records a finished VIO frame for the QoE pipeline.
type vioCompletion struct {
	frame  int
	finish float64
}

// Run executes one integrated ILLIXR run.
func Run(cfg RunConfig) *RunResult {
	if cfg.Duration <= 0 {
		cfg.Duration = 30
	}
	perc := runPerception(cfg)
	appProf := buildAppProfile(cfg, perc.ds)

	plat := cfg.Platform
	sim := simsched.New(plat.Cores)

	camPeriod := 1 / cfg.System.CameraRateHz
	imuPeriod := 1 / cfg.System.IMURateHz
	vsync := 1 / cfg.System.DisplayRateHz
	audioPeriod := 1 / cfg.System.AudioRateHz

	// pose availability log for MTP and QoE
	var poseLog []poseStamp
	var lastIMUSample float64
	var vioDone []vioCompletion
	pendingVIOFrame := 0

	// --- observability ---------------------------------------------------
	// Both collectors default to nil, which keeps every instrumented path
	// below a no-op; the sim's schedule is identical either way.
	reg := cfg.Metrics
	spans := cfg.Spans
	if reg != nil {
		installSchedMetrics(sim, reg)
	}
	mtpTotalH := reg.Histogram(telemetry.MetricName(CompReproj, "mtp_total_ms"))
	mtpAgeH := reg.Histogram(telemetry.MetricName(CompReproj, "mtp_imu_age_ms"))
	mtpReprojH := reg.Histogram(telemetry.MetricName(CompReproj, "mtp_reproj_ms"))
	mtpSwapH := reg.Histogram(telemetry.MetricName(CompReproj, "mtp_swap_ms"))
	// Span lineage state: each IMU sample and camera frame roots a trace;
	// downstream stages name their parents so a display frame is walkable
	// back to the sensor samples that produced it.
	var lastIMUSpan, lastVIOSpan, lastAudioSpan telemetry.SpanRef
	camSpanByFrame := map[int]telemetry.SpanRef{}

	scale := func(c perfmodel.Cost) (float64, float64) {
		cpuMs, gpuMs := c.OnPlatform(plat)
		return cpuMs / 1000, gpuMs / 1000
	}

	// --- fault hooks ----------------------------------------------------
	// The seeded schedule (cfg.Faults, nil for a clean run) drives three
	// hook points: sensor dropout suppresses releases, VIO stall windows
	// hang the estimator until its timeout-restart, and cost spikes
	// multiply component compute. See faults.go for the degradation
	// policies these exercise.
	fs := cfg.Faults
	spike := func(comp string, t float64) float64 { return fs.CostMultiplier(comp, t) }
	dropSensor := func(comp string) func(int, float64) bool {
		if fs == nil {
			return nil
		}
		return func(k int, t float64) bool { return fs.SensorDropped(comp, t) }
	}
	faultRestarts := map[string]int{}
	stallSeen := map[int]bool{}

	// --- perception pipeline -------------------------------------------
	sim.AddTask(&simsched.Task{
		Name: CompIMU, Period: imuPeriod, Priority: 100,
		SkipRelease: dropSensor("imu"),
		Work: func(k int, t float64) (float64, float64) {
			c, g := scale(perfmodel.IMUCost())
			return c * (1 + 0.1*jitter(k)) * spike(CompIMU, t), g
		},
		OnComplete: func(k int, rel, start, fin float64) {
			lastIMUSample = rel
			if spans != nil {
				// root span: the sample time is the span start, so IMU age
				// is recoverable from the spans alone
				lastIMUSpan = spans.Emit(CompIMU, 0, rel, fin)
			}
			sim.Trigger(CompIntegrator)
		},
	})
	sim.AddTask(&simsched.Task{
		Name: CompIntegrator, Priority: 95, DropIfBusy: true,
		Work: func(k int, t float64) (float64, float64) {
			c, g := scale(perfmodel.IntegratorCost(1))
			c *= 1 + 0.15*jitter(k*7+1)
			if k%211 == 0 {
				c += 0.0025 // rare OS scheduling hiccup
			}
			return c * spike(CompIntegrator, t), g
		},
		OnComplete: func(k int, rel, start, fin float64) {
			ps := poseStamp{available: fin, sampleT: lastIMUSample}
			if spans != nil {
				// the fast pose joins the latest IMU sample with the latest
				// VIO estimate (dead reckoning), so it has both as parents;
				// it continues the IMU sample's trace
				ps.span = spans.Emit(CompIntegrator, lastIMUSpan.Trace, start, fin,
					lastIMUSpan.Span, lastVIOSpan.Span)
			}
			poseLog = append(poseLog, ps)
		},
	})
	sim.AddTask(&simsched.Task{
		Name: CompCamera, Period: camPeriod, Priority: 60,
		SkipRelease: dropSensor("camera"),
		Work: func(k int, t float64) (float64, float64) {
			c, g := scale(perfmodel.CameraCost())
			return c * (1 + 0.1*jitter(k*3+2)) * spike(CompCamera, t), g
		},
		OnComplete: func(k int, rel, start, fin float64) {
			pendingVIOFrame = k
			if spans != nil {
				camSpanByFrame[k] = spans.Emit(CompCamera, 0, rel, fin)
			}
			sim.Trigger(CompVIO)
		},
	})
	vioFrameOf := map[int]int{} // vio instance k -> camera frame
	sim.AddTask(&simsched.Task{
		Name: CompVIO, Priority: 55, DropIfBusy: true,
		Work: func(k int, t float64) (float64, float64) {
			vioFrameOf[k] = pendingVIOFrame
			c, g := scale(perc.vioCost(pendingVIOFrame))
			c *= (1 + 0.06*jitter(k*5+3)) * spike(CompVIO, t)
			if i, ok := fs.ActiveIndex(faults.VIOStall, "", t); ok {
				// the estimator hangs until the stall window ends, holding
				// its core; the runtime's watchdog then restarts it —
				// camera triggers meanwhile are dropped latest-wins, and
				// the integrator dead-reckons on the last good estimate
				if rem := fs.Windows[i].End - t; rem > 0 {
					c += rem
				}
				if !stallSeen[i] {
					stallSeen[i] = true
					faultRestarts[CompVIO]++
				}
			}
			return c, g
		},
		OnComplete: func(k int, rel, start, fin float64) {
			vioDone = append(vioDone, vioCompletion{frame: vioFrameOf[k], finish: fin})
			if spans != nil {
				cam := camSpanByFrame[vioFrameOf[k]]
				lastVIOSpan = spans.Emit(CompVIO, cam.Trace, start, fin, cam.Span)
			}
		},
	})

	// --- visual pipeline -------------------------------------------------
	var appDone []struct {
		start, finish float64
		k             int
	}
	sim.AddTask(&simsched.Task{
		Name: CompApp, Period: vsync, Priority: 30, DropIfBusy: true,
		// a fixed-size command chunk takes longer on slower GPUs
		GPUSlice: 0.0005 / plat.GPUSpeed,
		Work: func(k int, t float64) (float64, float64) {
			c, g := scale(appProf.costAt(t, k))
			m := spike(CompApp, t)
			return c * m, g * m
		},
		OnComplete: func(k int, rel, start, fin float64) {
			appDone = append(appDone, struct {
				start, finish float64
				k             int
			}{start, fin, k})
		},
	})

	// Reprojection is scheduled as late as possible before each vsync
	// (§II-B footnote): the release leads the vsync by its expected
	// response time plus a small margin, clamped to one display period.
	reprojCost := perfmodel.ReprojectionCost(reprojStatsFor(cfg))
	rc, rg := scale(reprojCost)
	lead := math.Min((rc+rg)*1.25+0.0008, vsync)
	var mtp []telemetry.MTPSample
	var warpDone []struct {
		start, finish, display float64
	}
	sim.AddTask(&simsched.Task{
		Name: CompReproj, Period: vsync, Offset: vsync - lead, Priority: 90,
		DropIfBusy: true,
		Work: func(k int, t float64) (float64, float64) {
			m := spike(CompReproj, t)
			return rc * (1 + 0.07*jitter(k*11+4)) * m, rg * (1 + 0.07*jitter(k*13+5)) * m
		},
		OnComplete: func(k int, rel, start, fin float64) {
			deadline := rel + lead
			accepted := deadline
			if fin > deadline {
				misses := math.Ceil((fin - deadline) / vsync)
				accepted = deadline + misses*vsync
			}
			stamp := poseAt(poseLog, start)
			sample := telemetry.MTPSample{
				T:      accepted,
				IMUAge: (start - stamp.sampleT) * 1000,
				Reproj: (fin - start) * 1000,
				Swap:   (accepted - fin) * 1000,
			}
			mtp = append(mtp, sample)
			mtpTotalH.Observe(sample.Total())
			mtpAgeH.Observe(sample.IMUAge)
			mtpReprojH.Observe(sample.Reproj)
			mtpSwapH.Observe(sample.Swap)
			if spans != nil {
				// continue the trace of the pose this warp consumed, then
				// close the chain with a display span spanning the swap wait
				rs := spans.Emit(CompReproj, stamp.span.Trace, start, fin, stamp.span.Span)
				spans.Emit("display", rs.Trace, fin, accepted, rs.Span)
			}
			warpDone = append(warpDone, struct {
				start, finish, display float64
			}{start, fin, accepted})
		},
	})

	// --- audio pipeline ---------------------------------------------------
	sim.AddTask(&simsched.Task{
		Name: CompAudioEnc, Period: audioPeriod, Priority: 70,
		Work: func(k int, t float64) (float64, float64) {
			c, g := scale(perfmodel.AudioEncodeCost(2))
			return c * (1 + 0.08*jitter(k*17+6)) * spike(CompAudioEnc, t), g
		},
		OnComplete: func(k int, rel, start, fin float64) {
			if spans != nil {
				lastAudioSpan = spans.Emit(CompAudioEnc, 0, rel, fin)
			}
			sim.Trigger(CompAudioPlay)
		},
	})
	sim.AddTask(&simsched.Task{
		Name: CompAudioPlay, Priority: 68, DropIfBusy: true,
		Work: func(k int, t float64) (float64, float64) {
			c, g := scale(perfmodel.AudioPlaybackCost(12))
			return c * (1 + 0.08*jitter(k*19+7)) * spike(CompAudioPlay, t), g
		},
		OnComplete: func(k int, rel, start, fin float64) {
			if spans != nil {
				spans.Emit(CompAudioPlay, lastAudioSpan.Trace, start, fin, lastAudioSpan.Span)
			}
		},
	})

	sim.Run(cfg.Duration)

	// --- assemble results --------------------------------------------------
	res := &RunResult{
		App:         string(cfg.App),
		Platform:    plat.Name,
		Duration:    cfg.Duration,
		FrameRateHz: map[string]float64{},
		TargetHz:    map[string]float64{},
		ExecMs:      map[string][]float64{},
		Timeline:    map[string]*telemetry.Series{},
		CPUShare:    map[string]float64{},
		Dropped:     map[string]int{},
		MTP:         mtp,
		VIOATE:      perc.runner.ATE(perc.ds),
	}
	res.TargetHz[CompCamera] = cfg.System.CameraRateHz
	res.TargetHz[CompVIO] = cfg.System.CameraRateHz
	res.TargetHz[CompIMU] = cfg.System.IMURateHz
	res.TargetHz[CompIntegrator] = cfg.System.IMURateHz
	res.TargetHz[CompApp] = cfg.System.DisplayRateHz
	res.TargetHz[CompReproj] = cfg.System.DisplayRateHz
	res.TargetHz[CompAudioEnc] = cfg.System.AudioRateHz
	res.TargetHz[CompAudioPlay] = cfg.System.AudioRateHz

	totalCPUSec := 0.0
	cpuSec := map[string]float64{}
	for _, name := range Components {
		st := sim.Stats(name)
		res.FrameRateHz[name] = float64(st.Completed) / cfg.Duration
		res.Dropped[name] = st.Dropped
		series := &telemetry.Series{Name: name}
		for _, sp := range st.Spans {
			ms := (sp.CPUDuration + sp.GPUDuration) * 1000
			res.ExecMs[name] = append(res.ExecMs[name], ms)
			series.Append(sp.Release, ms)
		}
		res.Timeline[name] = series
		var c float64
		for _, sp := range st.Spans {
			c += sp.CPUDuration
		}
		cpuSec[name] = c
		totalCPUSec += c
	}
	if totalCPUSec > 0 {
		for name, c := range cpuSec {
			res.CPUShare[name] = c / totalCPUSec
		}
	}
	res.CPUUtil, res.GPUUtil = sim.Utilization()
	res.Power = power.Estimate(plat, power.Utilization{CPU: res.CPUUtil, GPU: res.GPUUtil})
	if fs != nil {
		res.Faults = buildFaultReport(fs, sim, mtp, vioDone, poseLog, warpDone, faultRestarts)
	}
	if reg != nil {
		reg.Gauge(telemetry.MetricName("run", "cpu_util")).Set(res.CPUUtil)
		reg.Gauge(telemetry.MetricName("run", "gpu_util")).Set(res.GPUUtil)
		reg.Gauge(telemetry.MetricName("run", "power_w")).Set(res.Power.Total())
		if res.Faults != nil {
			wireFaultMetrics(reg, res.Faults)
		}
	}

	if cfg.QualityFrames > 0 {
		evaluateQuality(cfg, perc, appProf, vioDone, appDone, warpDone, res)
	}
	return res
}

// poseAt returns the freshest pose stamp available at query time t
// (binary search over the pose log); the zero stamp when none exists yet.
func poseAt(log []poseStamp, t float64) poseStamp {
	i := sort.Search(len(log), func(i int) bool { return log[i].available > t })
	if i == 0 {
		return poseStamp{}
	}
	return log[i-1]
}

package core

import (
	"math"
	"slices"
	"testing"

	"illixr/internal/audio"
	"illixr/internal/config"
	"illixr/internal/perfmodel"
	"illixr/internal/render"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/testutil"
)

// shortRun runs a 8-second integrated simulation.
func shortRun(t *testing.T, app render.AppName, plat perfmodel.Platform) *RunResult {
	t.Helper()
	cfg := DefaultRunConfig(app, plat)
	cfg.Duration = 8
	return Run(cfg)
}

func TestDesktopMeetsMostTargets(t *testing.T) {
	res := shortRun(t, render.AppPlatformer, perfmodel.Desktop)
	// Fig 3a: on the desktop virtually all components meet their targets
	// for Platformer.
	for _, c := range Components {
		got := res.FrameRateHz[c]
		want := res.TargetHz[c]
		if got < 0.95*want {
			t.Errorf("%s: %.1f Hz below target %.1f", c, got, want)
		}
	}
}

func TestDesktopSponzaAppMissesTarget(t *testing.T) {
	// Fig 3a: the application misses its target for Sponza on the desktop.
	res := shortRun(t, render.AppSponza, perfmodel.Desktop)
	if res.FrameRateHz[CompApp] >= 0.95*res.TargetHz[CompApp] {
		t.Errorf("Sponza application unexpectedly met target: %.1f Hz", res.FrameRateHz[CompApp])
	}
	// but the rest of the system holds up
	if res.FrameRateHz[CompReproj] < 0.95*res.TargetHz[CompReproj] {
		t.Errorf("desktop reprojection degraded: %.1f Hz", res.FrameRateHz[CompReproj])
	}
}

func TestJetsonLPOnlyAudioMeetsTarget(t *testing.T) {
	// §IV-A1: "With Jetson-LP, only the audio pipeline is able to meet its
	// target" (camera/IMU acquisition still run at sensor rate).
	res := shortRun(t, render.AppSponza, perfmodel.JetsonLP)
	if res.FrameRateHz[CompAudioEnc] < 0.97*res.TargetHz[CompAudioEnc] ||
		res.FrameRateHz[CompAudioPlay] < 0.97*res.TargetHz[CompAudioPlay] {
		t.Error("audio pipeline should meet target on Jetson-LP")
	}
	for _, c := range []string{CompVIO, CompApp, CompReproj} {
		if res.FrameRateHz[c] >= 0.95*res.TargetHz[c] {
			t.Errorf("%s met target on Jetson-LP: %.1f/%.1f Hz",
				c, res.FrameRateHz[c], res.TargetHz[c])
		}
	}
}

func TestVisualPipelineDegradesAcrossPlatforms(t *testing.T) {
	d := shortRun(t, render.AppSponza, perfmodel.Desktop)
	hp := shortRun(t, render.AppSponza, perfmodel.JetsonHP)
	lp := shortRun(t, render.AppSponza, perfmodel.JetsonLP)
	if !(d.FrameRateHz[CompApp] > hp.FrameRateHz[CompApp] &&
		hp.FrameRateHz[CompApp] > lp.FrameRateHz[CompApp]) {
		t.Errorf("app rate not monotone: %.1f %.1f %.1f",
			d.FrameRateHz[CompApp], hp.FrameRateHz[CompApp], lp.FrameRateHz[CompApp])
	}
	if lp.FrameRateHz[CompReproj] >= d.FrameRateHz[CompReproj] {
		t.Error("reprojection did not degrade on Jetson-LP")
	}
}

func TestMTPShape(t *testing.T) {
	d := shortRun(t, render.AppPlatformer, perfmodel.Desktop)
	hp := shortRun(t, render.AppPlatformer, perfmodel.JetsonHP)
	lp := shortRun(t, render.AppPlatformer, perfmodel.JetsonLP)
	md, mhp, mlp := d.MTPSummary(), hp.MTPSummary(), lp.MTPSummary()
	// Table IV ordering: desktop < Jetson-HP < Jetson-LP
	if !(md.Mean < mhp.Mean && mhp.Mean < mlp.Mean) {
		t.Errorf("MTP ordering violated: %.1f %.1f %.1f", md.Mean, mhp.Mean, mlp.Mean)
	}
	// desktop achieves the 20 ms VR target with margin (≈3 ms)
	if md.Mean > 5 {
		t.Errorf("desktop MTP %.1f ms too high", md.Mean)
	}
	if md.Mean < 1 {
		t.Errorf("desktop MTP %.1f ms implausibly low", md.Mean)
	}
	// Jetson-LP still under the 20 ms VR target on average but far above
	// the 5 ms AR target (Table IV discussion)
	if mlp.Mean > config.TargetMTPVRMs || mlp.Mean < config.TargetMTPARMs {
		t.Errorf("Jetson-LP MTP %.1f ms outside expected band", mlp.Mean)
	}
	// every MTP decomposes into nonnegative parts
	for _, s := range lp.MTP {
		if s.IMUAge < 0 || s.Reproj <= 0 || s.Swap < -1e-9 {
			t.Fatalf("bad MTP decomposition: %+v", s)
		}
	}
}

func TestCPUShareShape(t *testing.T) {
	// Fig 5: VIO and the application are the largest CPU consumers;
	// reprojection never exceeds ~10 %.
	res := shortRun(t, render.AppSponza, perfmodel.Desktop)
	sum := 0.0
	for _, c := range Components {
		sum += res.CPUShare[c]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v", sum)
	}
	if res.CPUShare[CompVIO] < 0.15 {
		t.Errorf("VIO share %.2f too small", res.CPUShare[CompVIO])
	}
	if res.CPUShare[CompReproj] > 0.15 {
		t.Errorf("reprojection share %.2f too large", res.CPUShare[CompReproj])
	}
	top := res.CPUShare[CompVIO] + res.CPUShare[CompApp]
	if top < 0.4 {
		t.Errorf("VIO+app share %.2f not dominant", top)
	}
}

func TestPowerShape(t *testing.T) {
	d := shortRun(t, render.AppSponza, perfmodel.Desktop)
	lp := shortRun(t, render.AppSponza, perfmodel.JetsonLP)
	// Fig 6a: desktop draws hundreds of watts; Jetson-LP single digits.
	if d.Power.Total() < 100 || d.Power.Total() > 400 {
		t.Errorf("desktop power %.1f W", d.Power.Total())
	}
	if lp.Power.Total() < 4 || lp.Power.Total() > 12 {
		t.Errorf("Jetson-LP power %.1f W", lp.Power.Total())
	}
	// GPU dominates the desktop
	cpu, gpu, _, _, _ := d.Power.Shares()
	if gpu <= cpu {
		t.Error("desktop GPU power should dominate CPU")
	}
	// SoC+Sys exceed 50 % on Jetson-LP (§IV-A2)
	_, _, _, soc, sys := lp.Power.Shares()
	if soc+sys < 0.5 {
		t.Errorf("Jetson-LP SoC+Sys share %.2f below 50%%", soc+sys)
	}
	// orders-of-magnitude gap vs Table I ideals: desktop ≈3 orders vs the
	// AR ideal, Jetson-LP ≈2
	dGap := d.Power.Total() / config.IdealPowerARW
	lpGap := lp.Power.Total() / config.IdealPowerARW
	if dGap < 300 || lpGap < 20 || lpGap > 300 {
		t.Errorf("power gaps: desktop %.0fx, LP %.0fx", dGap, lpGap)
	}
}

func TestExecTimesAndTimeline(t *testing.T) {
	res := shortRun(t, render.AppPlatformer, perfmodel.Desktop)
	for _, c := range Components {
		if len(res.ExecMs[c]) == 0 {
			t.Fatalf("%s: no execution times", c)
		}
		if res.Timeline[c] == nil || len(res.Timeline[c].T) != len(res.ExecMs[c]) {
			t.Fatalf("%s: timeline inconsistent", c)
		}
	}
	// VIO per-frame time must vary (input dependence, Fig 4)
	vioTimes := res.ExecMs[CompVIO]
	mi, ma := vioTimes[0], vioTimes[0]
	for _, v := range vioTimes {
		mi = math.Min(mi, v)
		ma = math.Max(ma, v)
	}
	if ma-mi < 0.5 {
		t.Errorf("VIO execution time suspiciously constant: [%v, %v]", mi, ma)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := DefaultRunConfig(render.AppARDemo, perfmodel.JetsonHP)
	cfg.Duration = 5
	a := Run(cfg)
	b := Run(cfg)
	if a.MTPSummary() != b.MTPSummary() {
		t.Error("MTP not deterministic")
	}
	for _, c := range Components {
		if a.FrameRateHz[c] != b.FrameRateHz[c] {
			t.Fatalf("%s frame rate not deterministic", c)
		}
	}
	if a.VIOATE != b.VIOATE {
		t.Error("ATE not deterministic")
	}
}

func TestQualityPipelineOrdering(t *testing.T) {
	// Table V: SSIM and 1-FLIP degrade from desktop to Jetson-LP.
	vals := map[string]float64{}
	for _, plat := range perfmodel.Platforms {
		cfg := DefaultRunConfig(render.AppSponza, plat)
		cfg.Duration = 6
		cfg.QualityFrames = 4
		cfg.QualityW, cfg.QualityH = 192, 108
		res := Run(cfg)
		if res.SSIM.N == 0 {
			t.Fatalf("%s: no quality samples", plat.Name)
		}
		vals[plat.Name] = res.SSIM.Mean
		if res.OneMinusFLIP.Mean <= 0 || res.OneMinusFLIP.Mean > 1 {
			t.Errorf("%s: 1-FLIP %.3f out of range", plat.Name, res.OneMinusFLIP.Mean)
		}
	}
	if !(vals["desktop"] > vals["jetson-hp"] && vals["jetson-hp"] > vals["jetson-lp"]) {
		t.Errorf("SSIM ordering violated: %v", vals)
	}
}

func TestPluginsPipelineOnSwitchboard(t *testing.T) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 1
	ds := sensors.GenerateDataset(cfg)
	loader := runtime.NewLoader()
	player := &DatasetPlayerPlugin{Dataset: ds}
	audioPlugin := &AudioPlugin{}
	for _, p := range []runtime.Plugin{player, &IntegratorPlugin{}, audioPlugin} {
		if err := loader.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := player.PumpUntil(1.0); n == 0 {
		t.Fatal("no events pumped")
	}
	// give the integrator goroutine a chance to drain, then read the
	// fast-pose topic
	l, r := audioPlugin.ProcessBlock(1.0)
	if len(l) != 1024 || len(r) != 1024 {
		t.Fatal("bad audio block")
	}
	if err := loader.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// after shutdown the fast pose topic must have seen events
	top := loader.Context().Switchboard.GetTopic(runtime.TopicFastPose)
	if top.Seq() == 0 {
		t.Error("integrator plugin published no fast poses")
	}
	if _, ok := top.Latest(); !ok {
		t.Error("no latest fast pose")
	}
}

// TestZeroAllocBinauralPublish: a steady-state audio block, encoded,
// binauralized and published, allocates nothing. The event carries a
// pointer to the plugin's double-buffer slot holding the block's samples,
// so a subscriber still holds the previous block while the next is built.
func TestZeroAllocBinauralPublish(t *testing.T) {
	loader := runtime.NewLoader()
	p := &AudioPlugin{Sources: []audio.Source{
		audio.SineSource("radio", 440, 48000, 2, audio.DirectionFromAzEl(-1.2, 0.2)),
	}}
	if err := loader.Load(p); err != nil {
		t.Fatal(err)
	}
	defer loader.Shutdown()
	bin := loader.Context().Switchboard.GetTopic(runtime.TopicBinaural)
	tm := 0.0
	testutil.MustZeroAllocs(t, "AudioPlugin.ProcessBlock", func() {
		tm += 1024.0 / 48000
		p.ProcessBlock(tm)
	})
	prev, _ := bin.Latest()
	l, r := p.ProcessBlock(tm + 1024.0/48000)
	ev, _ := bin.Latest()
	blk, ok := ev.Value.(*[2][]float64)
	if !ok {
		t.Fatalf("binaural value is %T, want *[2][]float64", ev.Value)
	}
	if !slices.Equal(blk[0], l) || !slices.Equal(blk[1], r) {
		t.Error("the published block differs from the returned one")
	}
	if old := prev.Value.(*[2][]float64); old == blk || &old[0][0] == &blk[0][0] {
		t.Error("consecutive blocks share one slot")
	}
}

package core

import (
	"sync"
	"testing"
	"time"

	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/vio"
)

func TestVIOPluginTracksOverSwitchboard(t *testing.T) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 1.5
	cfg.MaxFeats = 40
	ds := sensors.GenerateDataset(cfg)

	reg := runtime.NewRegistry()
	RegisterVIO(reg, ds)
	plugin, err := reg.Create("slow_pose", "fast")
	if err != nil {
		t.Fatal(err)
	}
	loader := runtime.NewLoader()
	player := &DatasetPlayerPlugin{Dataset: ds}
	if err := loader.Load(player); err != nil {
		t.Fatal(err)
	}
	if err := loader.Load(plugin); err != nil {
		t.Fatal(err)
	}
	// pump in small steps so camera/IMU interleave like a live system
	for tm := 0.1; tm <= 1.5; tm += 0.1 {
		player.PumpUntil(tm)
		time.Sleep(2 * time.Millisecond) // let the plugin goroutine drain
	}
	// wait for processing to finish
	vp := plugin.(*VIOPlugin)
	deadline := time.Now().Add(30 * time.Second)
	for len(vp.Estimates()) < 15 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	ests := vp.Estimates()
	if len(ests) < 15 {
		t.Fatalf("only %d estimates", len(ests))
	}
	last := ests[len(ests)-1]
	gt := ds.GroundTruthAt(last.T)
	if d := last.Pose.TranslationDistance(gt); d > 0.1 {
		t.Errorf("live VIO error %.3f m", d)
	}
	// the slow-pose topic carries the estimates
	top := loader.Context().Switchboard.GetTopic(runtime.TopicSlowPose)
	if top.Seq() == 0 {
		t.Error("no slow poses published")
	}
	ev, ok := top.Latest()
	if !ok {
		t.Fatal("no latest slow pose")
	}
	if _, isEst := ev.Value.(vio.Estimate); !isEst {
		t.Error("slow-pose payload has wrong type")
	}
	if err := loader.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestVIOPluginRequiresDataset(t *testing.T) {
	p := &VIOPlugin{Params: vio.DefaultParams()}
	if err := p.Start(runtime.NewLoader().Context()); err == nil {
		t.Error("missing dataset accepted")
	}
}

// runVIOOver plays ds into a fresh VIO plugin, one pump call per entry of
// upTo, and returns every estimate. With wait set it lets VIO answer each
// pump before the next one, so VIO is never behind.
func runVIOOver(t *testing.T, ds *sensors.Dataset, upTo []float64, wait bool) []vio.Estimate {
	t.Helper()
	loader := runtime.NewLoader()
	player := &DatasetPlayerPlugin{Dataset: ds}
	vp := &VIOPlugin{Params: vio.FastParams(), Dataset: ds}
	for _, p := range []runtime.Plugin{player, vp} {
		if err := loader.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	await := func(n int) {
		deadline := time.Now().Add(30 * time.Second)
		for len(vp.Estimates()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d estimates", len(vp.Estimates()), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cams := 0
	for _, tm := range upTo {
		player.PumpUntil(tm)
		for cams < len(ds.Frames) && ds.Frames[cams].T <= tm {
			cams++
		}
		if wait {
			await(cams)
		}
	}
	await(cams)
	if err := loader.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return vp.Estimates()
}

// A VIO that has fallen more than a subscription fast tier (64 events)
// behind on IMU still integrates, for each camera frame, every sample
// published before it: the backlog reaches imuSub.C through a pump
// goroutine, so "C is empty" does not mean "nothing is queued". One pump
// call publishes 1500 IMU samples and then all the frames, each 100
// samples after the one before (more than C refills with while VIO works
// on a frame); the estimates must equal, bit for bit, those of a run
// where VIO keeps up.
func TestVIOPluginStalledMatchesUnstalled(t *testing.T) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 3
	cfg.CamRateHz = 5
	cfg.MaxFeats = 40
	ds := sensors.GenerateDataset(cfg)

	var steps []float64
	for _, f := range ds.Frames {
		steps = append(steps, f.T)
	}
	want := runVIOOver(t, ds, steps, true)
	got := runVIOOver(t, ds, []float64{cfg.Duration}, false)
	if len(got) != len(want) || len(want) < 10 {
		t.Fatalf("stalled run: %d estimates, unstalled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate %d (t=%.3f) differs once VIO is stalled:\n got %+v\nwant %+v", i, want[i].T, got[i].Pose, want[i].Pose)
		}
	}
}

// RegisterVIO adds the two interchangeable VIO configurations to a
// registry under the "slow_pose" role.
func RegisterVIO(reg *runtime.Registry, ds *sensors.Dataset) {
	_ = reg.Register("slow_pose", "openvins", func() runtime.Plugin {
		return &VIOPlugin{Params: vio.DefaultParams(), Dataset: ds}
	})
	_ = reg.Register("slow_pose", "fast", func() runtime.Plugin {
		return &VIOPlugin{Params: vio.FastParams(), Dataset: ds}
	})
}

// estimateLogs holds, per plugin, the slow-pose subscription vioStarted
// opens for it and the estimates received on it so far.
var estimateLogs sync.Map // *VIOPlugin -> *estimateLog

type estimateLog struct {
	mu   sync.Mutex
	sub  *runtime.Subscription
	ests []vio.Estimate
}

func init() {
	vioStarted = func(p *VIOPlugin, ctx *runtime.Context) {
		estimateLogs.Store(p, &estimateLog{sub: ctx.Switchboard.GetTopic(runtime.TopicSlowPose).Subscribe(4096)})
	}
}

// Estimates returns a copy of the estimates the plugin has published so
// far, in order (none before it started).
func (p *VIOPlugin) Estimates() []vio.Estimate {
	v, ok := estimateLogs.Load(p)
	if !ok {
		return nil
	}
	l := v.(*estimateLog)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		select {
		case ev := <-l.sub.C:
			if est, ok := ev.Value.(vio.Estimate); ok {
				l.ests = append(l.ests, est)
			}
		default:
			return append([]vio.Estimate(nil), l.ests...)
		}
	}
}

package core

// Live-runtime observability: plugins discover the registry and span
// collector via the phonebook, events carry SpanRefs across topics, and a
// binaural block or fast pose can be walked back to the sensor sample that
// produced it — the same lineage guarantee the simulated run makes.

import (
	"testing"
	"time"

	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLivePipelineLineageAndMetrics(t *testing.T) {
	dcfg := sensors.DefaultDatasetConfig()
	dcfg.Duration = 2
	ds := sensors.GenerateDataset(dcfg)

	loader := runtime.NewLoader()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewSpanCollector(0)
	pb := loader.Context().Phonebook
	if err := pb.Register(telemetry.RegistryService, reg); err != nil {
		t.Fatal(err)
	}
	if err := pb.Register(telemetry.TracerService, tracer); err != nil {
		t.Fatal(err)
	}
	loader.Context().Switchboard.SetMetrics(reg)

	player := &DatasetPlayerPlugin{Dataset: ds}
	vioP := &VIOPlugin{Params: vio.FastParams(), Dataset: ds}
	integ := &IntegratorPlugin{}
	audioP := &AudioPlugin{}
	for _, p := range []runtime.Plugin{player, vioP, integ, audioP} {
		if err := loader.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	defer loader.Shutdown()

	fastTopic := loader.Context().Switchboard.GetTopic(runtime.TopicFastPose)
	slowTopic := loader.Context().Switchboard.GetTopic(runtime.TopicSlowPose)
	player.PumpUntil(1.0)
	waitFor(t, "fast poses", func() bool { return fastTopic.Seq() > 0 })
	waitFor(t, "slow poses", func() bool { return slowTopic.Seq() > 0 })

	// fast pose → integrator → imu root
	fast, ok := fastTopic.Latest()
	if !ok || !fast.Trace.Valid() {
		t.Fatalf("fast pose event carries no span ref: %+v", fast.Trace)
	}
	names := map[string]bool{}
	for _, sp := range tracer.Lineage(fast.Trace.Span) {
		names[sp.Name] = true
	}
	if !names[CompIntegrator] || !names[CompIMU] {
		t.Errorf("fast pose lineage %v, want integrator and imu", names)
	}

	// slow pose → vio → camera root
	slow, _ := slowTopic.Latest()
	names = map[string]bool{}
	for _, sp := range tracer.Lineage(slow.Trace.Span) {
		names[sp.Name] = true
	}
	if !names[CompVIO] || !names[CompCamera] {
		t.Errorf("slow pose lineage %v, want vio and camera", names)
	}

	// binaural block → audio playback → fast pose → … → imu root
	audioP.ProcessBlock(1.0)
	bin, ok := loader.Context().Switchboard.GetTopic(runtime.TopicBinaural).Latest()
	if !ok {
		t.Fatal("no binaural block published")
	}
	names = map[string]bool{}
	for _, sp := range tracer.Lineage(bin.Trace.Span) {
		names[sp.Name] = true
	}
	if !names[CompAudioPlay] || !names[CompIntegrator] || !names[CompIMU] {
		t.Errorf("binaural lineage %v, want audio_playback, integrator, imu", names)
	}

	// metrics: plugin counters and topic instrumentation both populated
	for _, name := range []string{
		"illixr_integrator_samples_total",
		"illixr_vio_frames_total",
		"illixr_audio_blocks_total",
		"illixr_topic_imu_published_total",
		"illixr_topic_fast_pose_published_total",
	} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	if reg.Histogram("illixr_vio_frame_ms").Count() == 0 {
		t.Error("vio frame histogram empty")
	}
}

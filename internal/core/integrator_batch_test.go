package core

// The integrator's batch contract (DESIGN.md §9.2): every IMU sample is
// integrated, but of a backlog only the newest sample's pose is
// published — when the subscription channel runs empty or after
// poseBatchMax samples — so a consumer that keeps up sees one pose per
// sample and every burst ends on its last sample's pose.

import (
	goruntime "runtime"
	"testing"
	"time"

	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// imuRecording is the first n IMU samples of a synthesized recording and
// the integrator state a session starts from.
func imuRecording(t testing.TB, n int) ([]sensors.IMUSample, integrator.State) {
	t.Helper()
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = float64(n)/cfg.IMURateHz + 0.1
	ds := sensors.GenerateDataset(cfg)
	if len(ds.IMU) < n {
		t.Fatalf("recording has %d IMU samples, want %d", len(ds.IMU), n)
	}
	init := integrator.State{Pos: ds.Traj.Position(0), Vel: ds.Traj.Velocity(0), Rot: ds.Traj.Orientation(0)}
	return ds.IMU[:n], init
}

// poseAfter is the pose after feeding samples one by one from init.
func poseAfter(init integrator.State, samples []sensors.IMUSample) mathx.Pose {
	in := integrator.New(init)
	for _, s := range samples {
		in.Feed(s)
	}
	return in.FastPose()
}

// publishBurst publishes samples with the integrator kept off the CPU, so
// it finds the whole burst queued when it next runs.
func publishBurst(top *runtime.Topic, samples []sensors.IMUSample) {
	prev := goruntime.GOMAXPROCS(1)
	for _, s := range samples {
		top.Publish(runtime.Event{T: s.T, Value: s})
	}
	goruntime.GOMAXPROCS(prev)
}

// recvPoses receives fast poses until one carries T == last.
func recvPoses(t *testing.T, sub *runtime.Subscription, last float64) []runtime.Event {
	t.Helper()
	var got []runtime.Event
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sub.C:
			got = append(got, ev)
			if ev.T == last {
				return got
			}
		case <-timeout:
			t.Fatalf("no pose for t=%v after %d poses", last, len(got))
		}
	}
}

// A burst the integrator finds queued is integrated sample by sample and
// published as a few poses: increasing T, at most poseBatchMax samples
// apart (the bound that keeps a lagging integrator from starving the
// stream), ending on the last sample's pose, bit for bit.
func TestIntegratorBurstPublishesNewestPose(t *testing.T) {
	const n = 8*poseBatchMax + 5
	samples, init := imuRecording(t, n)
	index := make(map[float64]int, n)
	for i, s := range samples {
		index[s.T] = i
	}

	loader := runtime.NewLoader()
	reg := telemetry.NewRegistry()
	if err := loader.Context().Phonebook.Register(telemetry.RegistryService, reg); err != nil {
		t.Fatal(err)
	}
	sb := loader.Context().Switchboard
	poseSub := sb.GetTopic(runtime.TopicFastPose).Subscribe(2 * n)
	if err := loader.Load(&IntegratorPlugin{Initial: init}); err != nil {
		t.Fatal(err)
	}
	defer loader.Shutdown()

	publishBurst(sb.GetTopic(runtime.TopicIMU), samples)
	poses := recvPoses(t, poseSub, samples[n-1].T)

	prev := -1
	for k, ev := range poses {
		i, ok := index[ev.T]
		if !ok {
			t.Fatalf("pose %d carries T=%v, no sample's", k, ev.T)
		}
		if i <= prev {
			t.Fatalf("pose %d is for sample %d after sample %d: T not increasing", k, i, prev)
		}
		if i-prev > poseBatchMax {
			t.Fatalf("pose %d is %d samples after the one before, want <= %d", k, i-prev, poseBatchMax)
		}
		prev = i
	}
	if got, want := poses[len(poses)-1].Value.(mathx.Pose), poseAfter(init, samples); got != want {
		t.Fatalf("last pose %+v, want %+v (every sample fed one by one)", got, want)
	}
	if got := reg.Counter(integratorSamplesTotal).Value(); got != n {
		t.Errorf("samples_total = %d, want %d", got, n)
	}
	if got := reg.Counter(integratorPosesTotal).Value(); got != uint64(len(poses)) || len(poses) >= n {
		t.Errorf("poses_total = %d, received %d poses for %d samples: want equal, and fewer", got, len(poses), n)
	}
}

// An integrator that keeps up — each sample waits for the one before it
// to come back as a pose — publishes exactly one pose per sample.
func TestIntegratorSpacedSamplesPublishEach(t *testing.T) {
	const n = 20
	samples, init := imuRecording(t, n)

	loader := runtime.NewLoader()
	reg := telemetry.NewRegistry()
	if err := loader.Context().Phonebook.Register(telemetry.RegistryService, reg); err != nil {
		t.Fatal(err)
	}
	sb := loader.Context().Switchboard
	poseSub := sb.GetTopic(runtime.TopicFastPose).Subscribe(n)
	if err := loader.Load(&IntegratorPlugin{Initial: init}); err != nil {
		t.Fatal(err)
	}
	defer loader.Shutdown()

	imu := sb.GetTopic(runtime.TopicIMU)
	for i, s := range samples {
		imu.Publish(runtime.Event{T: s.T, Value: s})
		poses := recvPoses(t, poseSub, s.T)
		if len(poses) != 1 {
			t.Fatalf("sample %d came back as %d poses, want 1", i, len(poses))
		}
		if got, want := poses[0].Value.(mathx.Pose), poseAfter(init, samples[:i+1]); got != want {
			t.Fatalf("pose %d = %+v, want %+v", i, got, want)
		}
	}
	if got := reg.Counter(integratorPosesTotal).Value(); got != n {
		t.Errorf("poses_total = %d, want %d", got, n)
	}
}

// BenchmarkIntegratorPluginBurst is a saturated session's integrator: a
// 64-sample burst published at once and integrated down to its last
// pose. It reports ns per sample.
func BenchmarkIntegratorPluginBurst(b *testing.B) {
	const burst, rounds = poseBatchMax, 20
	samples, init := imuRecording(b, rounds*burst+1)
	span := samples[rounds*burst].T - samples[0].T
	samples = samples[:rounds*burst]
	loader := runtime.NewLoader()
	sb := loader.Context().Switchboard
	poseSub := sb.GetTopic(runtime.TopicFastPose).Subscribe(burst + 1)
	if err := loader.Load(&IntegratorPlugin{Initial: init}); err != nil {
		b.Fatal(err)
	}
	defer loader.Shutdown()
	imu := sb.GetTopic(runtime.TopicIMU)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// the recording repeats, shifted on so that time keeps moving
		shift := float64(i/rounds) * span
		var last float64
		for _, s := range samples[(i%rounds)*burst : (i%rounds+1)*burst] {
			s.T += shift
			imu.Publish(runtime.Event{T: s.T, Value: s})
			last = s.T
		}
		for ev := range poseSub.C {
			if ev.T == last {
				break
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/sample")
}

package integrator

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

// stateHash is an FNV-64a over every bit of every state in states.
func stateHash(states []State) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(states)))
	h.Write(buf[:])
	for _, s := range states {
		f(s.T, s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z,
			s.Rot.W, s.Rot.X, s.Rot.Y, s.Rot.Z,
			s.BiasG.X, s.BiasG.Y, s.BiasG.Z, s.BiasA.X, s.BiasA.Y, s.BiasA.Z)
	}
	return h.Sum64()
}

// goldenRecording is the seed-1 recording the fingerprints run over.
func goldenRecording() *sensors.Dataset {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Seed, cfg.Duration = 1, 10
	return sensors.GenerateDataset(cfg)
}

// goldenAnchor starts at the recording's first ground-truth pose, with
// biases set so the bias-correction terms take part in every step.
func goldenAnchor(ds *sensors.Dataset) State {
	gt := ds.GroundTruth[0]
	return State{T: gt.T, Pos: gt.Pose.Pos, Rot: gt.Pose.Rot,
		Vel:   mathx.Vec3{X: 0.1, Y: -0.05, Z: 0.02},
		BiasG: mathx.Vec3{X: 1e-3, Y: -2e-3, Z: 5e-4},
		BiasA: mathx.Vec3{X: -0.02, Y: 0.01, Z: 0.03}}
}

// TestRK4Golden pins the integrator's output bit for bit: the state after
// every sample of the seed-1 recording, through Feed and through RK4Step.
// A reordered addition anywhere in the step changes the fingerprint; the
// fast poses the offload path sends back are these states.
func TestRK4Golden(t *testing.T) {
	const (
		wantFeed = 0xcc969ddbd9850871
		wantStep = 0x2bac732ea338f570
	)
	ds := goldenRecording()
	in := New(goldenAnchor(ds))
	states := make([]State, 0, len(ds.IMU))
	for _, s := range ds.IMU {
		in.Feed(s)
		states = append(states, in.State())
	}
	if got := stateHash(states); got != wantFeed {
		t.Errorf("Feed: fingerprint %#016x, want %#016x", got, uint64(wantFeed))
	}
	states = states[:0]
	st := goldenAnchor(ds)
	for i := 1; i < len(ds.IMU); i++ {
		st = RK4Step(st, ds.IMU[i-1], ds.IMU[i])
		states = append(states, st)
	}
	if got := stateHash(states); got != wantStep {
		t.Errorf("RK4Step: fingerprint %#016x, want %#016x", got, uint64(wantStep))
	}
}

// BenchmarkRK4Step prices one integrator step on the seed-1 recording.
func BenchmarkRK4Step(b *testing.B) {
	ds := goldenRecording()
	in := New(goldenAnchor(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ds.IMU)
		if k == 0 {
			in.Reset(goldenAnchor(ds))
		}
		in.Feed(ds.IMU[k])
	}
}

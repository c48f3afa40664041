package sensors

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// datasetHash is an FNV-64a over every bit of a recording: each IMU
// sample, each ground-truth pose and each feature of each camera frame,
// with the lengths in front so a dropped or added element shows.
func datasetHash(ds *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	put(uint64(len(ds.IMU)))
	for _, s := range ds.IMU {
		f(s.T, s.Gyro.X, s.Gyro.Y, s.Gyro.Z, s.Accel.X, s.Accel.Y, s.Accel.Z)
	}
	put(uint64(len(ds.GroundTruth)))
	for _, g := range ds.GroundTruth {
		p := g.Pose
		f(g.T, p.Pos.X, p.Pos.Y, p.Pos.Z, p.Rot.W, p.Rot.X, p.Rot.Y, p.Rot.Z)
	}
	put(uint64(len(ds.Frames)))
	for _, fr := range ds.Frames {
		put(uint64(fr.Seq))
		f(fr.T)
		put(uint64(len(fr.Features)))
		for _, o := range fr.Features {
			put(uint64(o.ID))
			f(o.U, o.V)
		}
	}
	return h.Sum64()
}

// atProcs runs fn at GOMAXPROCS 1 and at the process default, so a golden
// holds on the serial schedule and on every core the host gives it.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			fn(t)
		})
	}
}

// TestDatasetGolden pins the synthesized recording itself, bit for bit:
// IMU noise and bias walk, ground truth and every feature's pixel noise.
// Downstream goldens (the VIO filter, the displayed frames) would notice a
// change in draw order only indirectly; this one names it.
func TestDatasetGolden(t *testing.T) {
	golden := []struct {
		seed     int64
		duration float64
		want     uint64
	}{
		{1, 1, 0x1603291ad79543df},
		{1, 10, 0xa626bfed3da1bed8},
		{1, 25, 0xb350f6a33097f922},
		{42, 1, 0xb1fb8a4f85efedd5},
		{42, 10, 0xaf8189754f2e0efd},
		{42, 25, 0xba11dba5a11f32b6},
	}
	atProcs(t, func(t *testing.T) {
		for _, g := range golden {
			cfg := DefaultDatasetConfig()
			cfg.Seed, cfg.Duration = g.seed, g.duration
			if got := datasetHash(GenerateDataset(cfg)); got != g.want {
				t.Errorf("seed %d, %g s: hash %#016x, want %#016x", g.seed, g.duration, got, g.want)
			}
		}
	})
}

// TestDatasetDegenerateConfigs covers zero and negative durations and
// rates. The commands reject them, but GenerateDataset keeps its answer
// for every config: counts follow int(duration·rate)+1 (none when that is
// negative), a zero rate stamps its one sample 0/0, and nothing panics.
func TestDatasetDegenerateConfigs(t *testing.T) {
	cases := []struct {
		name               string
		duration, imu, cam float64
		nIMU, nFrames      int
		want               uint64
	}{
		{"zero duration", 0, 500, 15, 1, 1, 0xce18dc76e5fc3133},
		{"negative duration under one sample", -0.001, 500, 15, 1, 1, 0xce18dc76e5fc3133},
		{"negative duration", -1, 500, 15, 0, 0, 0x81d23fd7003c2305},
		{"zero imu rate", 1, 0, 15, 1, 16, 0x340b1e0bc0d516a1},
		{"zero camera rate", 1, 500, 0, 501, 1, 0xdb4db6a464034d5d},
		{"negative imu rate", 1, -500, 15, 0, 16, 0xe90225588c6c20a1},
		{"negative camera rate", 1, 500, -15, 501, 0, 0xbb4a0adcb2d5d049},
		{"negative duration and rates", -1, -500, -15, 501, 16, 0x7086655ac693223b},
	}
	atProcs(t, func(t *testing.T) {
		for _, c := range cases {
			cfg := DefaultDatasetConfig()
			cfg.Duration, cfg.IMURateHz, cfg.CamRateHz = c.duration, c.imu, c.cam
			ds := GenerateDataset(cfg)
			if len(ds.IMU) != c.nIMU || len(ds.GroundTruth) != c.nIMU || len(ds.Frames) != c.nFrames {
				t.Errorf("%s: %d IMU, %d ground truth, %d frames; want %d, %d, %d", c.name,
					len(ds.IMU), len(ds.GroundTruth), len(ds.Frames), c.nIMU, c.nIMU, c.nFrames)
			}
			if got := datasetHash(ds); got != c.want {
				t.Errorf("%s: hash %#016x, want %#016x", c.name, got, c.want)
			}
		}
	})
}

// TestDatasetMatchesSampleByStep holds GenerateDataset's staged path to
// the one-call-per-sample API: IMU.Sample in time order, Trajectory.Pose,
// and VisibleFeatures drawing from one feature stream frame after frame.
func TestDatasetMatchesSampleByStep(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Duration = 3
	ds := GenerateDataset(cfg)
	imu := NewIMU(ds.Traj, cfg.IMUNoise, cfg.IMURateHz, cfg.Seed+1)
	for i, s := range ds.IMU {
		if want := imu.Sample(float64(i) / cfg.IMURateHz); s != want {
			t.Fatalf("IMU sample %d: %+v, want %+v", i, s, want)
		}
		if want := ds.Traj.Pose(s.T); ds.GroundTruth[i].Pose != want {
			t.Fatalf("ground truth %d: %+v, want %+v", i, ds.GroundTruth[i].Pose, want)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	for i, f := range ds.Frames {
		want := ds.World.VisibleFeatures(ds.Cam, ds.Traj.Pose(f.T), cfg.PixelNoise, cfg.MaxFeats, rng)
		if !slices.Equal(f.Features, want) {
			t.Fatalf("frame %d: %d features, want %d (or values differ)", i, len(f.Features), len(want))
		}
	}
}

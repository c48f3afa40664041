package vio

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"illixr/internal/sensors"
	"illixr/internal/testutil"
)

// goldenDataset is the recording every golden case runs over: four seconds
// is sixty camera frames, long enough for the window to fill, SLAM
// features to be promoted and pruned, and the QR-compressed update to run.
func goldenDataset(seed int64) *sensors.Dataset {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 4
	cfg.Seed = seed
	return sensors.GenerateDataset(cfg)
}

// filterFingerprint runs the filter over ds and writes, per camera frame,
// the bits of everything an Estimate carries (time, pose, velocity, both
// biases, every FrameStats field), then the final covariance's dimension
// and an FNV-64a over its bits.
func filterFingerprint(ds *sensors.Dataset, p Params) []byte {
	r := NewRunner(ds, p, NewGeometricFrontend(ds.Cam, p.MaxFeatures))
	r.Run(ds)
	var b bytes.Buffer
	for _, e := range r.Estimates {
		for _, v := range []float64{
			e.T,
			e.Pose.Pos.X, e.Pose.Pos.Y, e.Pose.Pos.Z,
			e.Pose.Rot.W, e.Pose.Rot.X, e.Pose.Rot.Y, e.Pose.Rot.Z,
			e.Vel.X, e.Vel.Y, e.Vel.Z,
			e.BiasG.X, e.BiasG.Y, e.BiasG.Z,
			e.BiasA.X, e.BiasA.Y, e.BiasA.Z,
			e.Stats.T,
		} {
			fmt.Fprintf(&b, "%016x ", math.Float64bits(v))
		}
		s := e.Stats
		fmt.Fprintf(&b, "%d %d %d %d %d %d %d %d %d\n",
			s.DetectedFeatures, s.TrackedFeatures, s.InitFeatures, s.MSCKFRows, s.SLAMRows,
			s.MarginalizedOps, s.StateDim, s.RejectedChi2, s.ImagePixels)
	}
	cov := r.Filter.cov
	h := fnv.New64a()
	var w [8]byte
	for _, v := range cov.Data {
		u := math.Float64bits(v)
		for i := range w {
			w[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(w[:]) // hash.Hash writes never fail
	}
	fmt.Fprintf(&b, "cov %dx%d %016x\n", cov.Rows, cov.Cols, h.Sum64())
	return b.Bytes()
}

// tightGateParams shrinks the chi-square gate until features are rejected
// (a dozen per recording), a path the two shipped configurations do not
// reach on these recordings.
func tightGateParams() Params {
	p := DefaultParams()
	p.ChiSquareScale = 0.25
	return p
}

// TestGoldenFilter pins every number the filter produces to fixtures written
// before the arena and the destination-passing kernels existed. Nothing in
// the integrated runs consumes slow_pose and the wall-clock benchmark only
// counts estimates, so this is the test a wrong filter fails. The fixtures
// are amd64 facts, like the render goldens: a compiler that fuses
// multiply-adds may round the GEMM differently.
func TestGoldenFilter(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixtures were written on amd64, this is %s", runtime.GOARCH)
	}
	for _, seed := range []int64{42, 7} {
		ds := goldenDataset(seed)
		for _, c := range []struct {
			name string
			p    Params
		}{{"default", DefaultParams()}, {"fast", FastParams()}, {"tightgate", tightGateParams()}} {
			path := fmt.Sprintf("testdata/filter_%s_seed%d.golden", c.name, seed)
			testutil.CheckGoldenBytes(t, path, filterFingerprint(ds, c.p))
		}
	}
}

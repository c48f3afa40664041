package sensors

import (
	"encoding/csv"
	"io"
	"math/rand"
	"slices"
	"strconv"

	"illixr/internal/mathx"
	"illixr/internal/parallel"
)

// TimedPose is a ground-truth pose sample.
type TimedPose struct {
	T    float64
	Pose mathx.Pose
}

// CameraFrame is one synchronized (stereo-rectified) camera observation:
// the geometric feature channel used by the VIO back end plus, optionally,
// a lazily-rendered image for the image front end.
type CameraFrame struct {
	Seq      int
	T        float64
	Features []FeatureObs
}

// Dataset is an offline, pre-recorded sensor recording with ground truth —
// the analogue of the EuRoC "Vicon Room 1 Medium" sequence the paper uses
// for VIO characterization and image-quality evaluation (§III-D, §III-E).
type Dataset struct {
	Name        string
	Cam         CameraModel
	World       *World
	Traj        *Trajectory
	IMU         []IMUSample
	Frames      []CameraFrame
	GroundTruth []TimedPose
}

// DatasetConfig controls synthetic dataset generation.
type DatasetConfig struct {
	Name       string
	Duration   float64 // seconds
	IMURateHz  float64
	CamRateHz  float64
	Landmarks  int
	PixelNoise float64
	IMUNoise   IMUNoise
	MaxFeats   int // per-frame feature cap (0 = all)
	Seed       int64
}

// DefaultDatasetConfig matches the paper's tuned system parameters
// (Table III): camera 15 Hz, IMU 500 Hz.
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{
		Name:       "synthetic",
		Duration:   30,
		IMURateHz:  500,
		CamRateHz:  15,
		Landmarks:  600,
		PixelNoise: 0.4,
		IMUNoise:   DefaultIMUNoise(),
		MaxFeats:   150,
		Seed:       42,
	}
}

// Tile sizes for GenerateDataset's parallel stages: IMU samples and camera
// frames per tile. Tiles depend only on these and the recording length.
const (
	imuTile   = 256
	frameTile = 16
)

// GenerateDataset synthesizes a full recording from the config.
//
// Everything a recording holds except its noise is a pure function of the
// sample time, so the IMU truth, the ground truth and each frame's landmark
// projection are computed on fixed tiles of the core pool. Every random
// draw (IMU noise and bias walk, pixel noise) happens in one serial pass
// in time order, so the recording is bit-identical at any GOMAXPROCS.
func GenerateDataset(cfg DatasetConfig) *Dataset {
	traj := DefaultTrajectory()
	world := NewRoomWorld(cfg.Landmarks, cfg.Seed)
	cam := VGACamera()
	imu := NewIMU(traj, cfg.IMUNoise, cfg.IMURateHz, cfg.Seed+1)
	featRng := rand.New(rand.NewSource(cfg.Seed + 2))
	pool := parallel.New(0)
	defer pool.Close()

	nIMU := stamps(cfg.Duration, cfg.IMURateHz)
	nCam := stamps(cfg.Duration, cfg.CamRateHz)
	ds := &Dataset{
		Name: cfg.Name, Cam: cam, World: world, Traj: traj,
		IMU:         make([]IMUSample, nIMU),
		GroundTruth: make([]TimedPose, nIMU),
		Frames:      make([]CameraFrame, nCam),
	}
	pool.ForTiles("sensors_truth", nIMU, imuTile, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := float64(i) / cfg.IMURateHz
			q, gyro, accel := imu.truth(t)
			ds.IMU[i] = IMUSample{T: t, Gyro: gyro, Accel: accel}
			ds.GroundTruth[i] = TimedPose{T: t, Pose: mathx.Pose{Pos: traj.Position(t), Rot: q}}
		}
	})
	cands := make([][]featureCand, nCam)
	pool.ForTiles("sensors_project", nCam, frameTile, func(lo, hi int) {
		// one landmark-sized buffer per tile; each frame keeps an
		// exact-size copy until its noise is drawn
		scratch := make([]featureCand, 0, len(world.Landmarks))
		for i := lo; i < hi; i++ {
			t := float64(i) / cfg.CamRateHz
			cands[i] = slices.Clone(world.project(scratch, cam, traj.Pose(t)))
		}
	})
	for i := range ds.IMU {
		ds.IMU[i] = imu.measure(ds.IMU[i])
	}
	for i := range cands {
		cands[i] = addPixelNoise(cands[i], cam, cfg.PixelNoise, featRng)
	}
	pool.ForTiles("sensors_select", nCam, frameTile, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := float64(i) / cfg.CamRateHz
			ds.Frames[i] = CameraFrame{Seq: i, T: t, Features: nearest(cands[i], cfg.MaxFeats)}
		}
	})
	return ds
}

// stamps is how many samples a channel at rateHz gets over duration: one
// at each i/rateHz for i = 0 … int(duration·rateHz), none when that bound
// is negative.
func stamps(duration, rateHz float64) int {
	return max(int(duration*rateHz)+1, 0)
}

// GroundTruthAt linearly interpolates the ground-truth pose at time t.
func (d *Dataset) GroundTruthAt(t float64) mathx.Pose {
	gt := d.GroundTruth
	if len(gt) == 0 {
		return mathx.PoseIdentity()
	}
	if t <= gt[0].T {
		return gt[0].Pose
	}
	if t >= gt[len(gt)-1].T {
		return gt[len(gt)-1].Pose
	}
	// binary search for the bracketing samples
	lo, hi := 0, len(gt)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if gt[mid].T <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	span := gt[hi].T - gt[lo].T
	if span <= 0 {
		return gt[lo].Pose
	}
	return gt[lo].Pose.Interpolate(gt[hi].Pose, (t-gt[lo].T)/span)
}

// WriteIMUCSV writes the IMU channel in EuRoC format:
// timestamp_ns, wx, wy, wz, ax, ay, az.
func (d *Dataset) WriteIMUCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"#timestamp_ns", "wx", "wy", "wz", "ax", "ay", "az"}); err != nil {
		return err
	}
	for _, s := range d.IMU {
		rec := []string{
			strconv.FormatInt(int64(s.T*1e9), 10),
			fmtF(s.Gyro.X), fmtF(s.Gyro.Y), fmtF(s.Gyro.Z),
			fmtF(s.Accel.X), fmtF(s.Accel.Y), fmtF(s.Accel.Z),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// Package vio implements the head-tracking component of ILLIXR's
// perception pipeline: a Multi-State Constraint Kalman Filter (MSCKF)
// visual-inertial odometry system modelled on OpenVINS (Table II, "VIO").
// It contains the same seven algorithmic tasks the paper characterizes in
// Table VI: feature detection, feature matching, feature initialization,
// MSCKF update, SLAM update, marginalization, and miscellaneous image
// processing.
package vio

import (
	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

// Params are the VIO tuning knobs. The paper's §V-E ablation varies the
// number of tracked points and SLAM features to trade accuracy for
// execution time.
type Params struct {
	MaxClones      int     // sliding-window size (stochastic clones)
	MaxFeatures    int     // features tracked per frame
	MaxSLAM        int     // SLAM features kept in the state
	GridCell       int     // spatial bucketing cell for detection (px)
	PixelNoise     float64 // measurement sigma in pixels
	MinTrackLen    int     // observations required before an MSCKF update
	MaxIterGN      int     // Gauss-Newton iterations for triangulation
	ChiSquareScale float64 // multiplier on the 95% chi-square gate
	KLT            imgprocParams
}

type imgprocParams struct {
	FASTThreshold float32
	PyramidLevels int
}

// DefaultParams mirrors the paper's high-accuracy configuration.
func DefaultParams() Params {
	return Params{
		MaxClones:      11,
		MaxFeatures:    150,
		MaxSLAM:        25,
		GridCell:       32,
		PixelNoise:     1.0,
		MinTrackLen:    4,
		MaxIterGN:      5,
		ChiSquareScale: 1.0,
		KLT: imgprocParams{
			FASTThreshold: 0.08,
			PyramidLevels: 3,
		},
	}
}

// FastParams is the §V-E "lower accuracy" configuration: fewer tracked
// points and SLAM features for ~1.5× less per-frame work.
func FastParams() Params {
	p := DefaultParams()
	p.MaxFeatures = 60
	p.MaxSLAM = 8
	p.MaxClones = 8
	return p
}

// featureObs is one feature observation: normalized image-plane coordinates at a
// given clone index.
type featureObs struct {
	CloneID int // filter-assigned clone identifier
	XN, YN  float64
}

// track is the observation history of one feature.
type track struct {
	FeatureID int
	Obs       []featureObs
	// InState marks the feature as a SLAM feature living in the filter
	// state.
	InState bool
}

// FrameInput is the per-camera-frame input to the filter: the set of
// tracked features in normalized coordinates plus the raw IMU since the
// previous frame.
type FrameInput struct {
	T        float64
	Features []TrackedFeature
	IMU      []sensors.IMUSample
}

// TrackedFeature is a front-end output: a persistent feature ID and its
// normalized image coordinates in the current frame.
type TrackedFeature struct {
	ID     int
	XN, YN float64
}

// FrameStats counts the algorithmic work of one VIO frame, broken down by
// the tasks of Table VI. The performance model converts these into cycles.
type FrameStats struct {
	T float64
	// Task work counters
	DetectedFeatures int // feature detection
	TrackedFeatures  int // feature matching (KLT / descriptor assoc.)
	InitFeatures     int // feature initialization (triangulations)
	MSCKFRows        int // stacked residual rows in the MSCKF update
	SLAMRows         int // stacked residual rows in the SLAM update
	MarginalizedOps  int // clone marginalizations
	StateDim         int // error-state dimension after the frame
	RejectedChi2     int // features rejected by the chi-square gate
	ImagePixels      int // pixels touched by "other" image processing
}

// Estimate is the filter output published on the slow-pose topic.
type Estimate struct {
	T     float64
	Pose  mathx.Pose
	Vel   mathx.Vec3
	BiasG mathx.Vec3
	BiasA mathx.Vec3
	Stats FrameStats
}

// Package config holds the system-level ILLIXR configuration: the tuned
// parameters of Table III, the aspirational-requirements data of Table I,
// and the per-application run configurations of §III.
package config

// SystemParams are the key parameters that required manual system-level
// tuning (Table III).
type SystemParams struct {
	CameraRateHz     float64 // tuned 15 Hz (range 15–100)
	CameraWidth      int     // VGA
	CameraHeight     int
	CameraExposureMs float64 // tuned 1 ms (range 0.2–20)
	IMURateHz        float64 // tuned 500 Hz (≤800)
	DisplayRateHz    float64 // tuned 120 Hz (range 30–144)
	DisplayWidth     int     // 2K
	DisplayHeight    int
	FovDegrees       float64 // tuned 90 (≤180)
	AudioRateHz      float64 // tuned 48 Hz block rate (range 48–96)
	AudioBlockSize   int     // tuned 1024 (range 256–2048)
	AudioSampleRate  float64
	AmbisonicOrder   int
	// Workers is the data-parallel worker count for the visual/quality/
	// audio kernels (internal/parallel). 1 = serial; any value produces
	// bitwise-identical results (DESIGN.md §8).
	Workers int
}

// Default returns the tuned configuration of Table III.
func Default() SystemParams {
	return SystemParams{
		CameraRateHz:     15,
		CameraWidth:      640,
		CameraHeight:     480,
		CameraExposureMs: 1,
		IMURateHz:        500,
		DisplayRateHz:    120,
		DisplayWidth:     2560,
		DisplayHeight:    1440,
		FovDegrees:       90,
		AudioRateHz:      48,
		AudioBlockSize:   1024,
		AudioSampleRate:  48000,
		AmbisonicOrder:   2,
		Workers:          1,
	}
}

// NetParams tunes the edge-offload streaming layer (internal/netxr): the
// session transport the server runs and the defaults the network bench
// sweeps around (DESIGN.md §9).
type NetParams struct {
	// MaxSessions caps concurrent sessions per server process.
	MaxSessions int
	// QueueLen bounds each session's reliable send queue; pose/frame
	// traffic is latest-wins and needs no depth.
	QueueLen int
	// IdleTimeoutSec closes sessions whose uplink goes silent.
	IdleTimeoutSec float64
	// Profile names the default netsim link profile ("wifi").
	Profile string
}

// DefaultNet returns the tuned offload-transport configuration.
func DefaultNet() NetParams {
	return NetParams{
		MaxSessions:    64,
		QueueLen:       256,
		IdleTimeoutSec: 30,
		Profile:        "wifi",
	}
}

// Deadlines returns the per-pipeline deadlines in milliseconds implied by
// the tuned rates (Table III, "Deadline" column).
func (p SystemParams) Deadlines() (cameraMs, imuMs, displayMs, audioMs float64) {
	return 1000 / p.CameraRateHz, 2, 1000 / p.DisplayRateHz, 1000 / p.AudioRateHz
}

// Requirement is one row of Table I.
type Requirement struct {
	Metric          string
	VarjoVR3        string
	IdealVR         string
	HoloLens2       string
	IdealAR         string
	IdealVRNumeric  float64 // machine-usable ideal value where meaningful
	IdealARNumeric  float64
	NumericMeasures string // unit of the numeric fields
}

// Requirements reproduces Table I: ideal requirements of VR and AR versus
// state-of-the-art devices.
func Requirements() []Requirement {
	return []Requirement{
		{"Resolution (MPixels)", "15.7", "200", "4.4", "200", 200, 200, "MPixels"},
		{"Field-of-view (degrees)", "115 / 165x175", "165×175", "52 diag / 120x135", "165×175", 165, 165, "degrees"},
		{"Refresh rate (Hz)", "90", "90 – 144", "120", "90 – 144", 90, 90, "Hz"},
		{"Motion-to-photon latency (ms)", "< 20", "< 20", "< 9", "< 5", 20, 5, "ms"},
		{"Power (W)", "N/A", "1 – 2", "> 7", "0.1 – 0.2", 1.5, 0.15, "W"},
		{"Silicon area (mm2)", "N/A", "100 – 200", "> 173", "< 100", 150, 100, "mm2"},
		{"Weight (grams)", "944", "100 – 200", "566", "10s", 150, 30, "g"},
	}
}

// TargetMTPVRMs and TargetMTPARMs are the motion-to-photon targets used in
// Table IV.
const (
	TargetMTPVRMs = 20.0
	TargetMTPARMs = 5.0
	IdealPowerARW = 0.15
)

// ComponentInfo is one row of Table II: algorithm and implementation per
// component, including the interchangeable alternatives this reproduction
// builds.
type ComponentInfo struct {
	Pipeline  string
	Component string
	Algorithm string
	Detailed  bool // the * alternative with detailed results in the paper
}

// Components reproduces Table II for this reproduction: the Go analogue of
// each component's reference implementation.
func Components() []ComponentInfo {
	return []ComponentInfo{
		{"Perception", "Camera", "Synthetic trajectory + landmark projection (ZED SDK analogue)", true},
		{"Perception", "IMU", "Analytic IMU model w/ bias random walk (ZED SDK analogue)", true},
		{"Perception", "VIO", "MSCKF w/ SLAM features (OpenVINS analogue)", true},
		{"Perception", "VIO", "MSCKF fast profile (Kimera-VIO slot)", false},
		{"Perception", "IMU Integrator", "RK4 (OpenVINS analogue)", true},
		{"Perception", "Eye Tracking", "CNN segmentation + pupil centroid (RITnet analogue)", true},
		{"Perception", "Scene Reconstruction", "Surfel fusion + fern loop closure (ElasticFusion analogue)", true},
		{"Visual", "Application", "Software rasterizer + Godot-scene analogues", true},
		{"Visual", "Reprojection", "VP-matrix rotational/translational timewarp", true},
		{"Visual", "Lens Distortion", "Mesh-based radial distortion", true},
		{"Visual", "Chromatic Aberration", "Mesh-based per-channel radial distortion", true},
		{"Visual", "Adaptive Display", "Weighted Gerchberg–Saxton hologram", true},
		{"Audio", "Audio Encoding", "HOA ambisonic encoding (libspatialaudio analogue)", true},
		{"Audio", "Audio Playback", "HOA rotation/zoom + HRTF binauralization", true},
	}
}

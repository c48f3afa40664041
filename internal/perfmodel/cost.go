package perfmodel

import (
	"illixr/internal/hologram"
	"illixr/internal/reconstruct"
	"illixr/internal/render"
	"illixr/internal/reprojection"
	"illixr/internal/vio"
)

// Calibration constants: desktop milliseconds per work unit. The absolute
// values were chosen so that the 30-second integrated run reproduces the
// desktop per-frame execution times of Fig 4 and the task shares of
// Tables VI/VII; the relative Jetson behaviour then follows from the
// platform speed ratios alone.
const (
	// --- VIO (per camera frame) ---
	vioBaseMs        = 1.0
	vioPerDetectMs   = 0.22   // FAST + descriptor bucket per new feature
	vioDetectFixedMs = 0.45   // image pyramid + pre-filtering for detection
	vioPerTrackMs    = 0.020  // KLT per tracked feature
	vioPerInitMs     = 0.35   // triangulation + nullspace setup
	vioPerMSCKFRowMs = 0.055  // stacked-row update cost
	vioPerSLAMRowMs  = 0.022  // SLAM rows (smaller blocks than MSCKF rows)
	vioPerMargMs     = 0.50   // covariance shrink
	vioPerDim2Ms     = 4.8e-5 // covariance O(dim²) maintenance

	// --- IMU integrator (per 2 ms invocation) ---
	integratorPerStepMs = 0.045
	integratorBaseMs    = 0.015

	// --- camera driver (per frame) ---
	cameraFrameMs = 0.8

	// --- IMU driver (per sample) ---
	imuSampleMs = 0.012

	// --- application (per rendered frame) ---
	appCPUBaseMs      = 0.9     // engine + driver CPU work
	appPerPhysicsMs   = 0.004   // physics/collision unit
	appPerTriangleMs  = 8e-5    // vertex + setup (CPU side)
	appPerKFragMs     = 0.00053 // GPU per 1000 cost-weighted fragments
	appGPUBaseMs      = 0.7     // render-pass fixed overhead
	appProbePixelNorm = 1.0     // probe renders are pre-scaled by system/core

	// --- reprojection (per vsync) ---
	reprojCPUStateMs = 0.45 // FBO + OpenGL state updates (driver-bound)
	reprojPerMPixMs  = 0.10 // resampling per megapixel (memory-bound)
	reprojPerMeshKMs = 0.02 // per 1000 mesh vertices

	// --- audio (per 1024-sample block) ---
	audioEncodeBaseMs    = 0.05
	audioEncodePerSrcMs  = 0.11  // normalize+encode+sum per source
	audioPlaybackBaseMs  = 0.35  // rotation + zoom
	audioPlaybackPerSpMs = 0.055 // per virtual speaker HRTF convolution

	// --- scene reconstruction (per frame) ---
	reconPerKDepthMs  = 0.08  // bilateral filter per 1000 depth px
	reconPerKMapPxMs  = 0.30  // vertex/normal maps + layout per 1000 px
	reconPerICPPairMs = 0.002 // point-to-plane pair
	reconPerKPredMs   = 0.80  // surfel splatting per 1000 predicted
	reconPerKFuseMs   = 1.00  // merge per 1000 fused+added surfels
	reconPerKMapMs    = 0.05  // map maintenance per 1000 surfels
	reconPerKDeformMs = 5.0   // loop-closure deformation per 1000 surfels
	reconBaseMs       = 0.5

	// --- hologram (per frame) ---
	holoPerMOpMs = 0.95 // per million pixel-spot transcendental ops
)

// VIOCost models one VIO frame, including the per-task split of Table VI.
func VIOCost(st vio.FrameStats) Cost {
	dim := float64(st.StateDim)
	detect := vioDetectFixedMs + vioPerDetectMs*float64(st.DetectedFeatures)
	match := vioPerTrackMs * float64(st.TrackedFeatures)
	initF := vioPerInitMs * float64(st.InitFeatures)
	msckf := vioPerMSCKFRowMs*float64(st.MSCKFRows) + 0.5*vioPerDim2Ms*dim*dim
	slam := vioPerSLAMRowMs*float64(st.SLAMRows) + 0.5*vioPerDim2Ms*dim*dim
	marg := vioPerMargMs * float64(st.MarginalizedOps)
	other := vioBaseMs
	c := Cost{
		Tasks: map[string]float64{
			"Feature detection":      detect,
			"Feature matching":       match,
			"Feature initialization": initF,
			"MSCKF update":           msckf,
			"SLAM update":            slam,
			"Marginalization":        marg,
			"Other":                  other,
		},
	}
	c.CPUms = detect + match + initF + msckf + slam + marg + other
	return c
}

// IntegratorCost models one integrator invocation over n RK4 steps.
func IntegratorCost(steps int) Cost {
	return Cost{CPUms: integratorBaseMs + integratorPerStepMs*float64(steps)}
}

// CameraCost models one camera frame acquisition + debayer/rectify.
func CameraCost() Cost { return Cost{CPUms: cameraFrameMs} }

// IMUCost models one IMU sample read.
func IMUCost() Cost { return Cost{CPUms: imuSampleMs} }

// AppCost models one application frame from rasterizer statistics. The
// fragment counts are produced at probe resolution and must be pre-scaled
// by the caller to display resolution.
func AppCost(st render.FrameStats) Cost {
	cpu := appCPUBaseMs +
		appPerPhysicsMs*float64(st.PhysicsOps) +
		appPerTriangleMs*float64(st.TrianglesSubmitted)
	gpu := appGPUBaseMs + appPerKFragMs*float64(st.ShadingCostWeight)/1000*appProbePixelNorm
	return Cost{CPUms: cpu, GPUms: gpu}
}

// ReprojectionCost models one timewarp pass, with the Table VII task
// split (FBO / OpenGL state updates / reprojection shading).
func ReprojectionCost(st reprojection.Stats) Cost {
	fbo := 0.3 * reprojCPUStateMs
	state := 0.7 * reprojCPUStateMs
	shade := reprojPerMPixMs*float64(st.Pixels)/1e6 +
		reprojPerMeshKMs*float64(st.MeshVertices)/1000
	return Cost{
		CPUms: fbo + state,
		GPUms: shade,
		Tasks: map[string]float64{
			"FBO":                 fbo,
			"OpenGL State Update": state,
			"Reprojection":        shade,
		},
	}
}

// AudioEncodeCost models one encoded block of n sources, with the Table
// VII split (normalization / encoding / summation).
func AudioEncodeCost(sources int) Cost {
	total := audioEncodeBaseMs + audioEncodePerSrcMs*float64(sources)
	return Cost{
		CPUms: total,
		Tasks: map[string]float64{
			"Normalization": 0.07 * total,
			"Encoding":      0.81 * total,
			"Summation":     0.12 * total,
		},
	}
}

// AudioPlaybackCost models one binauralized block over nSpeakers virtual
// speakers, with the Table VII split.
func AudioPlaybackCost(nSpeakers int) Cost {
	total := audioPlaybackBaseMs + audioPlaybackPerSpMs*float64(nSpeakers)
	return Cost{
		CPUms: total,
		Tasks: map[string]float64{
			"Psychoacoustic filter": 0.29 * total,
			"Rotation":              0.06 * total,
			"Zoom":                  0.05 * total,
			"Binauralization":       0.60 * total,
		},
	}
}

// ReconstructionCost models one RGB-D fusion frame with the Table VI task
// split for scene reconstruction.
func ReconstructionCost(st reconstruct.FrameStats) Cost {
	camProc := reconBaseMs*0.1 + reconPerKDepthMs*float64(st.DepthPixels)/1000
	imgProc := reconBaseMs*0.3 + reconPerKMapPxMs*float64(st.MapPixels)/1000
	poseEst := reconBaseMs*0.2 + reconPerICPPairMs*float64(st.ICPPairs)
	surfPred := reconBaseMs*0.2 + reconPerKPredMs*float64(st.SurfelsPredicted)/1000
	fusion := reconBaseMs*0.2 +
		reconPerKFuseMs*float64(st.SurfelsFused+st.SurfelsAdded)/1000 +
		reconPerKMapMs*float64(st.MapSize)/1000
	if st.LoopClosure {
		fusion += reconPerKDeformMs * float64(st.DeformSurfels) / 1000
	}
	c := Cost{
		Tasks: map[string]float64{
			"Camera Processing": camProc,
			"Image Processing":  imgProc,
			"Pose Estimation":   poseEst,
			"Surfel Prediction": surfPred,
			"Map Fusion":        fusion,
		},
	}
	c.GPUms = imgProc + poseEst + surfPred + fusion
	c.CPUms = camProc
	return c
}

// HologramCost models one hologram generation, with the Table VII task
// split (hologram-to-depth / sum / depth-to-hologram).
func HologramCost(st hologram.Stats) Cost {
	total := holoPerMOpMs * float64(st.PixelSpotOps) / 1e6
	return Cost{
		GPUms: total,
		Tasks: map[string]float64{
			"Hologram-to-depth": 0.57 * total,
			"Sum":               0.0005 * total,
			"Depth-to-hologram": 0.4295 * total,
		},
	}
}

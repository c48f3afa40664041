// Package openxr provides the minimal OpenXR-flavoured frame loop that
// applications program against (§II: ILLIXR is exposed to applications
// through the OpenXR API; here the Monado-equivalent runtime is the Go
// components behind this facade). RunFrames follows the OpenXR frame
// loop: xrWaitFrame → xrBeginFrame → xrLocateViews → render →
// xrEndFrame(layer).
package openxr

import (
	"errors"
	"fmt"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/reprojection"
)

// SessionConfig configures a session.
type SessionConfig struct {
	Width, Height int
	DisplayRateHz float64
	// Pose supplies the runtime's head pose at a session time — in a full
	// system this is the perception pipeline's fast pose; tests and
	// examples may use ground truth.
	Pose func(t float64) mathx.Pose
	// Reproject enables the runtime-side timewarp on submitted frames.
	Reproject bool
}

// RunFrames runs n iterations of the frame loop in virtual time and
// returns the last composited (displayed) frame. Each iteration waits for
// the next frame slot, locates the single centred view at the slot's
// predicted display time and hands its pose and the slot's start time to
// render, which returns the app's layer. The runtime composites the layer
// — reprojecting it to the freshest pose when enabled. The layer must be
// Width×Height.
func RunFrames(cfg SessionConfig, n int, render func(pose mathx.Pose, t float64) *imgproc.RGB) (*imgproc.RGB, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, errors.New("openxr: invalid swapchain size")
	}
	if cfg.DisplayRateHz <= 0 {
		cfg.DisplayRateHz = 120
	}
	if cfg.Pose == nil {
		return nil, errors.New("openxr: a Pose source is required")
	}
	var warp *reprojection.Reprojector
	if cfg.Reproject {
		warp = reprojection.New(reprojection.DefaultParams())
	}
	period := 1 / cfg.DisplayRateHz
	var displayed *imgproc.RGB
	for frame := 0; frame < n; frame++ {
		// xrWaitFrame: the slot starts at frame·period and is predicted
		// to be displayed one period later
		now := float64(frame) * period
		renderPose := cfg.Pose(now + period)
		layer := render(renderPose, now)
		// xrEndFrame
		if layer == nil || layer.W != cfg.Width || layer.H != cfg.Height {
			return nil, fmt.Errorf("openxr: layer must be %dx%d", cfg.Width, cfg.Height)
		}
		if warp != nil {
			fresh := cfg.Pose(float64(frame+1) * period)
			displayed = warp.Reproject(layer, renderPose, fresh)
		} else {
			displayed = layer.Clone()
		}
	}
	return displayed, nil
}

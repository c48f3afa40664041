// VR Sponza: a full VR frame loop — the Sponza application running on the
// OpenXR-style interface with a live perception pipeline (VIO + RK4
// integrator providing fast poses) and runtime-side timewarp, then an
// image-quality comparison against ground-truth rendering.
//
//	go run ./examples/vr_sponza
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/openxr"
	"illixr/internal/quality"
	"illixr/internal/render"
	"illixr/internal/sensors"
	"illixr/internal/vio"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// perception pipeline over a short recording
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 4
	ds := sensors.GenerateDataset(cfg)
	params := vio.DefaultParams()
	runner := vio.NewRunner(ds, params, vio.NewGeometricFrontend(ds.Cam, params.MaxFeatures))
	runner.Run(ds)
	// the fast pose at t re-anchors on the newest estimate at or before t
	// (ground truth before the first one)
	fastPose := func(t float64) mathx.Pose {
		i := sort.Search(len(runner.Estimates), func(i int) bool { return runner.Estimates[i].T > t })
		if i == 0 {
			return ds.GroundTruthAt(0)
		}
		return vio.Reanchor(runner.Estimates[i-1], ds.IMU, t)
	}

	// VR session at 30 Hz (kept low so the example runs in seconds)
	const width, height, frames = 256, 144, 20
	scene := render.BuildScene(render.AppSponza, 42)
	renderer := render.NewRenderer(width, height)
	displayed, err := openxr.RunFrames(openxr.SessionConfig{
		Width: width, Height: height, DisplayRateHz: 30, Reproject: true, Pose: fastPose,
	}, frames, func(pose mathx.Pose, t float64) *imgproc.RGB {
		return renderer.RenderFrame(scene, pose, t)
	})
	if err != nil {
		return err
	}
	stats := renderer.Stats
	fmt.Fprintf(w, "rendered %d frames: %d triangles submitted, %.1fM fragments shaded\n",
		frames, stats.TrianglesSubmitted, float64(stats.FragmentsShaded)/1e6)

	// Compare the final displayed (estimated-pose, timewarped) frame with
	// a ground-truth render at the same display time.
	displayT := float64(frames) / 30
	ideal := render.NewRenderer(width, height).RenderFrame(scene, ds.GroundTruthAt(displayT), displayT-1.0/30)
	ssim := quality.SSIMRGB(displayed, ideal)
	flip := quality.OneMinusFLIP(displayed, ideal)
	fmt.Fprintf(w, "displayed vs ground-truth render: SSIM %.3f, 1-FLIP %.3f\n", ssim, flip)
	fmt.Fprintf(w, "head-tracking ATE over the run: %.1f mm\n", 1000*runner.ATE(ds))
	return nil
}

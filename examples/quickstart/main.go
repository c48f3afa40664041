// Quickstart: the smallest end-to-end tour of ILLIXR-Go — generate a
// sensor recording, track the head with VIO, render an application frame
// through the OpenXR-style interface, timewarp it, and spatialize audio.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"illixr/internal/audio"
	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/openxr"
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
	// 1) Sensors: a synthetic 5-second walk with camera + IMU.
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 5
	ds := sensors.GenerateDataset(cfg)
	fmt.Fprintf(w, "dataset: %d IMU samples, %d camera frames\n", len(ds.IMU), len(ds.Frames))

	// 2) Head tracking: MSCKF VIO over the recording.
	params := vio.DefaultParams()
	runner := vio.NewRunner(ds, params, vio.NewGeometricFrontend(ds.Cam, params.MaxFeatures))
	runner.Run(ds)
	last := runner.Estimates[len(runner.Estimates)-1]
	gt := ds.GroundTruthAt(last.T)
	fmt.Fprintf(w, "VIO: tracked %.1f s, final error %.1f mm, ATE %.1f mm\n",
		last.T, 1000*last.Pose.TranslationDistance(gt), 1000*runner.ATE(ds))

	// 3) Application + runtime: render one frame through the OpenXR-style
	// frame loop with runtime-side reprojection.
	scene := render.BuildScene(render.AppSponza, 42)
	renderer := render.NewRenderer(320, 180)
	displayed, err := openxr.RunFrames(openxr.SessionConfig{
		Width: 320, Height: 180, DisplayRateHz: 120, Reproject: true, Pose: ds.GroundTruthAt,
	}, 1, func(pose mathx.Pose, t float64) *imgproc.RGB {
		return renderer.RenderFrame(scene, pose, t)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "visual: rendered+timewarped a %dx%d Sponza frame (mean luminance %.2f)\n",
		displayed.W, displayed.H, displayed.Luminance().Mean())

	// 4) Audio: encode a speech-like source into 2nd-order ambisonics and
	// binauralize it at the current head pose.
	src := audio.SpeechLikeSource("lecturer", 48000, 1, audio.DirectionFromAzEl(0.8, 0.1), 7)
	enc := audio.NewEncoder(2, 1024, []audio.Source{src})
	play := audio.NewPlayback(2, 1024, 48000)
	left, right := play.Process(enc.EncodeBlock(), gt)
	fmt.Fprintf(w, "audio: binaural block rms L=%.3f R=%.3f\n", audio.RMS(left), audio.RMS(right))

	fmt.Fprintln(w, "quickstart complete")
	return nil
}

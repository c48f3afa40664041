package openxr

import (
	"testing"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/render"
	"illixr/internal/sensors"
)

func gtPose() func(float64) mathx.Pose {
	return sensors.DefaultTrajectory().Pose
}

// blank renders an empty w×h layer.
func blank(w, h int) func(mathx.Pose, float64) *imgproc.RGB {
	return func(mathx.Pose, float64) *imgproc.RGB { return imgproc.NewRGB(w, h) }
}

func TestSessionCreationValidation(t *testing.T) {
	if _, err := RunFrames(SessionConfig{Width: 0, Height: 10, Pose: gtPose()}, 1, blank(0, 10)); err == nil {
		t.Error("zero-width session accepted")
	}
	if _, err := RunFrames(SessionConfig{Width: 10, Height: 10}, 1, blank(10, 10)); err == nil {
		t.Error("session without poses accepted")
	}
	if _, err := RunFrames(SessionConfig{Width: 16, Height: 16, Pose: gtPose()}, 1, blank(16, 16)); err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
	if _, err := RunFrames(SessionConfig{Width: 8, Height: 8, Pose: gtPose()}, 1, blank(4, 4)); err == nil {
		t.Error("wrong-size layer accepted")
	}
}

// TestFrameLoopOrdering: frame k's slot starts at k periods (the default
// rate is 120 Hz) and renders the pose predicted one period later.
func TestFrameLoopOrdering(t *testing.T) {
	var times, located []float64
	pose := func(tm float64) mathx.Pose {
		located = append(located, tm)
		return gtPose()(tm)
	}
	render := func(_ mathx.Pose, tm float64) *imgproc.RGB {
		times = append(times, tm)
		return imgproc.NewRGB(8, 8)
	}
	img, err := RunFrames(SessionConfig{Width: 8, Height: 8, Pose: pose}, 3, render)
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		t.Error("no displayed frame")
	}
	for k, tm := range times {
		if want := float64(k) / 120; tm != want || located[k] != want+1.0/120 {
			t.Errorf("frame %d rendered at t=%g for display at %g, want %g and %g", k, tm, located[k], want, want+1.0/120)
		}
	}
	if len(times) != 3 || len(located) != 3 {
		t.Errorf("%d frames rendered, %d poses located; want 3 and 3", len(times), len(located))
	}
}

func TestViewsFollowPoseProvider(t *testing.T) {
	tr := sensors.DefaultTrajectory()
	var got mathx.Pose
	render := func(p mathx.Pose, _ float64) *imgproc.RGB {
		got = p
		return imgproc.NewRGB(8, 8)
	}
	if _, err := RunFrames(SessionConfig{Width: 8, Height: 8, DisplayRateHz: 60, Pose: gtPose()}, 1, render); err != nil {
		t.Fatal(err)
	}
	if got.TranslationDistance(tr.Pose(1.0/60)) > 1e-12 {
		t.Error("view pose not from provider")
	}
}

func TestReprojectingSessionWarps(t *testing.T) {
	layer := imgproc.NewRGB(32, 32)
	for i := range layer.Pix {
		layer.Pix[i] = 0.5
	}
	img, err := RunFrames(SessionConfig{Width: 32, Height: 32, DisplayRateHz: 30, Pose: gtPose(), Reproject: true}, 1,
		func(mathx.Pose, float64) *imgproc.RGB { return layer })
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || img.W != 32 || img == layer {
		t.Fatal("no warped output")
	}
}

// TestAllAppsRenderFrames runs each of the paper's four applications
// (§III-C) through the loop: n frames rendered, each shading fragments.
func TestAllAppsRenderFrames(t *testing.T) {
	cfg := SessionConfig{Width: 64, Height: 48, DisplayRateHz: 60, Pose: gtPose()}
	for _, name := range render.AllApps {
		scene := render.BuildScene(name, 1)
		r := render.NewRenderer(64, 48)
		frames := 0
		_, err := RunFrames(cfg, 3, func(p mathx.Pose, tm float64) *imgproc.RGB {
			frames++
			return r.RenderFrame(scene, p, tm)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if frames != 3 {
			t.Errorf("%s: frames = %d", name, frames)
		}
		if r.Stats.FragmentsShaded == 0 {
			t.Errorf("%s: nothing rendered", name)
		}
	}
}

func TestDisplayedImageHasLayerSize(t *testing.T) {
	scene := render.BuildScene(render.AppARDemo, 1)
	r := render.NewRenderer(48, 48)
	img, err := RunFrames(SessionConfig{Width: 48, Height: 48, DisplayRateHz: 60, Pose: gtPose()}, 1,
		func(p mathx.Pose, tm float64) *imgproc.RGB { return r.RenderFrame(scene, p, tm) })
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || img.W != 48 || img.H != 48 {
		t.Fatal("bad displayed image")
	}
}

package app

import (
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/openxr"
	"illixr/internal/render"
	"illixr/internal/sensors"
)

func session(t *testing.T, w, h int) *openxr.Session {
	t.Helper()
	tr := sensors.DefaultTrajectory()
	s, err := openxr.CreateInstance("apptest").CreateSession(openxr.SessionConfig{
		Width: w, Height: h, DisplayRateHz: 60,
		Poses: openxr.PoseFunc(func(tm float64) mathx.Pose { return tr.Pose(tm) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllAppsRenderFrames(t *testing.T) {
	for _, name := range render.AllApps {
		a := New(name, session(t, 64, 48), 64, 48, 1)
		if err := a.Run(3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Frames != 3 {
			t.Errorf("%s: frames = %d", name, a.Frames)
		}
		if a.RenderWorkStats().FragmentsShaded == 0 {
			t.Errorf("%s: nothing rendered", name)
		}
	}
}

func TestAppStepReturnsDisplayedImage(t *testing.T) {
	a := New(render.AppARDemo, session(t, 48, 48), 48, 48, 1)
	img, err := a.step()
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || img.W != 48 || img.H != 48 {
		t.Fatal("bad displayed image")
	}
}

// Package app implements the paper's four evaluation applications
// (§III-C: Sponza, Materials, Platformer, AR demo) as OpenXR clients: a
// render loop that waits for a frame slot, locates the predicted view,
// rasterizes the scene, and submits the layer to the runtime.
package app

import (
	"fmt"

	"illixr/internal/imgproc"
	"illixr/internal/openxr"
	"illixr/internal/render"
)

// Application is one XR app bound to a session.
type Application struct {
	Name     render.AppName
	Scene    *render.Scene
	Renderer *render.Renderer
	Session  *openxr.Session
	// Frames rendered so far.
	Frames int
}

// New builds the named application on a session. The renderer runs on its
// own GOMAXPROCS-sized pool; call a.Renderer.SetPool to share a pool or,
// with nil, to render serially (output is the same either way).
func New(name render.AppName, session *openxr.Session, w, h int, seed int64) *Application {
	return &Application{
		Name:     name,
		Scene:    render.BuildScene(name, seed),
		Renderer: render.NewRenderer(w, h),
		Session:  session,
	}
}

// step runs one iteration of the OpenXR frame loop and returns the
// composited display image.
func (a *Application) step() (*imgproc.RGB, error) {
	state := a.Session.WaitFrame()
	if err := a.Session.BeginFrame(); err != nil {
		return nil, err
	}
	views := a.Session.LocateViews(state.PredictedDisplayTime)
	if len(views) == 0 {
		return nil, fmt.Errorf("app %s: no views located", a.Name)
	}
	frame := a.Renderer.RenderFrame(a.Scene, views[0].Pose, a.Session.Time())
	if err := a.Session.EndFrame(frame); err != nil {
		return nil, err
	}
	a.Frames++
	return a.Session.Displayed, nil
}

// Run executes n frame-loop iterations.
func (a *Application) Run(n int) error {
	for i := 0; i < n; i++ {
		if _, err := a.step(); err != nil {
			return err
		}
	}
	return nil
}

// RenderWorkStats exposes accumulated rasterizer statistics.
func (a *Application) RenderWorkStats() render.FrameStats { return a.Renderer.Stats }

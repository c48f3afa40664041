package bridge

import (
	"sync"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// A -vio session's inbox holds at most vioIMUInbox samples and
// vioCamInbox camera frames, the depths of the MSCKF plugin's IMU and
// camera subscriptions; past either the oldest entry is dropped.
// vioResetBudget is how many panics a session's VIO is reset after
// before it stops.
const (
	vioIMUInbox    = 8192
	vioCamInbox    = 64
	vioResetBudget = 5
)

// vioCamera is an inbox camera frame and the span that carried it.
type vioCamera struct {
	frame sensors.CameraFrame
	ref   telemetry.SpanRef
}

// vioSession is one -vio session's MSCKF (DESIGN.md §9.3). The session
// reader fills its inbox (and, with cross-session batching, a pool worker
// adds the camera frames); one goroutine takes a camera frame at a time,
// with every IMU sample received before it, through a core.VIOTracker,
// and keeps the newest estimate latest-wins. A panic in a frame resets the
// filter to the session's initial state and counts
// illixr_vio_resets_total; the panic after vioResetBudget resets stops VIO
// for the session, which keeps integrating and sending poses.
type vioSession struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu: a camera frame arrived, or the inbox ended
	imu    []sensors.IMUSample
	cams   []vioCamera
	ended  bool         // no more input: the session ended or VIO stopped
	latest vio.Estimate // the newest estimate; zero before the first
	done   chan struct{}
}

// startVIOSession starts a session's VIO goroutine, its filter at init,
// first and after every reset. (A function of its own: the closure's
// captures would otherwise reach the heap on every session, VIO or not.)
func (p *Pipeline) startVIOSession(cam sensors.CameraModel, init integrator.State, tracer *telemetry.SpanCollector) *vioSession {
	v := &vioSession{done: make(chan struct{})}
	v.cond.L = &v.mu
	go v.run(func() core.VIOTracker {
		return core.NewVIOTracker(vio.DefaultParams(), cam, init, tracer, p.Metrics)
	}, p.vioResets, p.vioFault)
	return v
}

func (v *vioSession) addIMU(s sensors.IMUSample) {
	v.mu.Lock()
	if !v.ended {
		if len(v.imu) == vioIMUInbox {
			v.imu = v.imu[1:]
		}
		v.imu = append(v.imu, s)
	}
	v.mu.Unlock()
}

func (v *vioSession) addCamera(f sensors.CameraFrame, ref telemetry.SpanRef) {
	v.mu.Lock()
	if !v.ended {
		if len(v.cams) == vioCamInbox {
			v.popCamera()
		}
		v.cams = append(v.cams, vioCamera{frame: f, ref: ref})
		v.cond.Signal()
	}
	v.mu.Unlock()
}

// popCamera removes and returns the oldest camera frame. Caller holds mu.
func (v *vioSession) popCamera() vioCamera {
	c := v.cams[0]
	n := copy(v.cams, v.cams[1:])
	v.cams[n] = vioCamera{} // the inbox keeps no dropped frame's features
	v.cams = v.cams[:n]
	return c
}

func (v *vioSession) run(newTracker func() core.VIOTracker, resets *telemetry.Counter, fault func(t float64)) {
	defer close(v.done)
	tracker := newTracker()
	var spare []sensors.IMUSample // the inbox's other IMU buffer
	for panics := 0; ; {
		c, imu, ok := v.next(spare)
		if !ok {
			return
		}
		if !v.frame(&tracker, c, imu, fault) {
			if panics++; panics > vioResetBudget {
				v.end()
				return
			}
			resets.Inc()
			tracker = newTracker()
		}
		spare = imu[:0]
	}
}

// next waits for a camera frame and takes it with every IMU sample
// received so far, leaving spare as the inbox's IMU buffer; ok is false
// once the inbox has ended.
func (v *vioSession) next(spare []sensors.IMUSample) (c vioCamera, imu []sensors.IMUSample, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.cams) == 0 && !v.ended {
		v.cond.Wait()
	}
	if v.ended {
		return vioCamera{}, nil, false
	}
	imu, v.imu = v.imu, spare
	return v.popCamera(), imu, true
}

// frame runs one camera frame over the samples taken with it and reports
// false if it panicked.
func (v *vioSession) frame(tr *core.VIOTracker, c vioCamera, imu []sensors.IMUSample, fault func(t float64)) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	for _, s := range imu {
		tr.AddIMU(s)
	}
	if fault != nil {
		fault(c.frame.T)
	}
	est, _ := tr.Frame(c.frame, c.ref)
	v.mu.Lock()
	v.latest = est
	v.mu.Unlock()
	return true
}

// end stops the inbox and drops what it holds; the goroutine exits
// before its next frame.
func (v *vioSession) end() {
	v.mu.Lock()
	v.ended = true
	v.imu, v.cams = nil, nil
	v.cond.Signal()
	v.mu.Unlock()
}

// stop ends the session's VIO and waits for its goroutine.
func (v *vioSession) stop() {
	v.end()
	<-v.done
}

package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"illixr/internal/integrator"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// VIOPlugin is the head-tracking plugin: it reads the camera topic
// synchronously (every frame matters) and the IMU topic for propagation,
// and publishes slow-pose estimates. Two interchangeable configurations
// register under the "slow_pose" role — "openvins" (default accuracy) and
// "fast" (§V-E's cheaper configuration) — demonstrating the paper's
// plug-n-play component swapping.
type VIOPlugin struct {
	Params  vio.Params
	Dataset *sensors.Dataset // initialization pose + camera model
	// Cam and Init configure the filter when no dataset is available —
	// the edge-offload server (internal/netxr) hosts VIO for remote
	// sessions whose recording lives on the client, so it starts from
	// the negotiated camera model and an explicit initial state instead.
	Cam  *sensors.CameraModel
	Init *integrator.State

	filter   *vio.Filter
	frontend vio.Frontend
	ctx      *runtime.Context
	camSub   *runtime.Subscription
	imuSub   *runtime.Subscription
	done     chan struct{}

	mu        sync.Mutex
	estimates []vio.Estimate
}

// Name implements runtime.Plugin.
func (p *VIOPlugin) Name() string { return "vio.msckf" }

// Start implements runtime.Plugin.
func (p *VIOPlugin) Start(ctx *runtime.Context) error {
	if p.Dataset == nil && (p.Cam == nil || p.Init == nil) {
		return fmt.Errorf("vio plugin: dataset or explicit camera model + init required")
	}
	p.ctx = ctx
	var init integrator.State
	var cam sensors.CameraModel
	if p.Dataset != nil {
		init = integrator.State{
			Pos: p.Dataset.Traj.Position(0),
			Vel: p.Dataset.Traj.Velocity(0),
			Rot: p.Dataset.Traj.Orientation(0),
		}
		cam = p.Dataset.Cam
	} else {
		init = *p.Init
		cam = *p.Cam
	}
	p.filter = vio.NewFilter(p.Params, sensors.DefaultIMUNoise(), init)
	p.frontend = vio.NewGeometricFrontend(cam, p.Params.MaxFeatures)
	p.camSub = ctx.Switchboard.GetTopic(runtime.TopicCamera).Subscribe(64)
	imuTopic := ctx.Switchboard.GetTopic(runtime.TopicIMU)
	p.imuSub = imuTopic.Subscribe(8192)
	// imuSeen is the time of the newest IMU event behind us; a sample from
	// before the subscription will never arrive on it, so it counts as seen
	imuSeen := math.Inf(-1)
	if ev, ok := imuTopic.Latest(); ok {
		imuSeen = ev.T
	}
	p.done = make(chan struct{})
	slowTopic := ctx.Switchboard.GetTopic(runtime.TopicSlowPose)
	inj := injectorFrom(ctx)
	tracer := tracerFrom(ctx)
	reg := metricsFrom(ctx)
	frames := reg.Counter(telemetry.MetricName(CompVIO, "frames_total"))
	frameMs := reg.Histogram(telemetry.MetricName(CompVIO, "frame_ms"))

	ctx.Go(p.Name(), func() {
		defer close(p.done)
		// imuBuf holds the samples received and not yet consumed; use is the
		// part of it handed to the filter for one frame. Both are reused.
		var imuBuf, use []sensors.IMUSample
		for ev := range p.camSub.C {
			frame, ok := ev.Value.(sensors.CameraFrame)
			if !ok {
				continue
			}
			if inj.ShouldPanic(p.Name(), frame.T) {
				panic(fmt.Sprintf("injected fault at t=%.3f", frame.T))
			}
			wall := time.Now()
			// take every IMU sample published before this camera frame (the
			// streams are time-ordered). They are all queued on imuSub, but
			// an empty C does not say so: past the subscription's fast tier
			// they reach C through a pump goroutine (DESIGN.md §4). So
			// receive, blocking, up to the newest sample the topic has seen,
			// and only then drain whatever else is already there.
			newest, published := imuTopic.Latest()
		drain:
			for {
				var imuEv runtime.Event
				var open bool
				if published && imuSeen < newest.T {
					imuEv, open = <-p.imuSub.C
				} else {
					select {
					case imuEv, open = <-p.imuSub.C:
					default:
						break drain
					}
				}
				if !open {
					break drain
				}
				imuSeen = imuEv.T
				if s, ok2 := imuEv.Value.(sensors.IMUSample); ok2 {
					imuBuf = append(imuBuf, s)
				}
			}
			// split the buffer at the frame time; what is left is compacted
			// in place (the write index never passes the read index)
			use = use[:0]
			rest := imuBuf[:0]
			for _, s := range imuBuf {
				if s.T <= frame.T {
					use = append(use, s)
				} else {
					rest = append(rest, s)
				}
			}
			imuBuf = rest
			feats, _ := p.frontend.Process(frame)
			est := p.filter.ProcessFrame(vio.FrameInput{T: frame.T, Features: feats, IMU: use})
			p.mu.Lock()
			p.estimates = append(p.estimates, est)
			p.mu.Unlock()
			frameMs.Observe(float64(time.Since(wall).Nanoseconds()) / 1e6)
			frames.Inc()
			ref := tracer.Emit(CompVIO, ev.Trace.Trace, frame.T, est.T, ev.Trace.Span)
			slowTopic.Publish(runtime.Event{T: est.T, Value: est, Trace: ref})
		}
	})
	return nil
}

// Stop implements runtime.Plugin. Frames already on the camera channel are
// still answered, with the IMU samples that reached imuSub.C; IMU queued
// beyond the subscription's fast tier (DESIGN.md §4) is dropped with the
// Cancel.
func (p *VIOPlugin) Stop() error {
	p.camSub.Cancel()
	p.imuSub.Cancel()
	<-p.done
	return nil
}

var _ runtime.Plugin = (*VIOPlugin)(nil)

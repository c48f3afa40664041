package core

import (
	"fmt"
	"math"
	"time"

	"illixr/internal/integrator"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/vio"
)

// VIOTracker is the head-tracking role's per-frame work, shared by
// VIOPlugin and the offload replica's -vio sessions (DESIGN.md §9.3): IMU
// samples are buffered as they arrive, and each camera frame hands the
// filter the buffered samples up to the frame's time (the rest stay for
// the next frame), runs the front end and the filter update, times and
// counts the frame and emits the vio span. Not safe for concurrent use.
type VIOTracker struct {
	filter   *vio.Filter
	frontend vio.Frontend
	tracer   *telemetry.SpanCollector
	frames   *telemetry.Counter
	frameMs  *telemetry.Histogram
	// imu holds the samples received and not yet consumed; use is the part
	// of it handed to the filter for one frame. Both are reused.
	imu, use []sensors.IMUSample
}

// NewVIOTracker starts a filter at init over a front end for cam that
// emits its spans into tracer and counts into reg; either may be nil. It
// returns the value so an owner can keep it in its own state.
func NewVIOTracker(p vio.Params, cam sensors.CameraModel, init integrator.State, tracer *telemetry.SpanCollector, reg *telemetry.Registry) VIOTracker {
	return VIOTracker{
		filter:   vio.NewFilter(p, sensors.DefaultIMUNoise(), init),
		frontend: vio.NewGeometricFrontend(cam, p.MaxFeatures),
		tracer:   tracer,
		frames:   reg.Counter(telemetry.MetricName(CompVIO, "frames_total")),
		frameMs:  reg.Histogram(telemetry.MetricName(CompVIO, "frame_ms")),
	}
}

// AddIMU buffers one sample for the frame that covers its time.
func (v *VIOTracker) AddIMU(s sensors.IMUSample) { v.imu = append(v.imu, s) }

// Frame processes one camera frame with every buffered sample at or
// before its time; ref is the span of the event that carried the frame,
// the vio span's parent. It returns the estimate and the vio span.
func (v *VIOTracker) Frame(frame sensors.CameraFrame, ref telemetry.SpanRef) (vio.Estimate, telemetry.SpanRef) {
	wall := time.Now()
	// split the buffer at the frame time; what is left is compacted in
	// place (the write index never passes the read index)
	v.use = v.use[:0]
	rest := v.imu[:0]
	for _, s := range v.imu {
		if s.T <= frame.T {
			v.use = append(v.use, s)
		} else {
			rest = append(rest, s)
		}
	}
	v.imu = rest
	feats, _ := v.frontend.Process(frame)
	est := v.filter.ProcessFrame(vio.FrameInput{T: frame.T, Features: feats, IMU: v.use})
	v.frameMs.Observe(float64(time.Since(wall).Nanoseconds()) / 1e6)
	v.frames.Inc()
	return est, v.tracer.Emit(CompVIO, ref.Trace, frame.T, est.T, ref.Span)
}

// VIOPlugin is the head-tracking plugin: it reads the camera topic
// synchronously (every frame matters) and the IMU topic for propagation,
// and publishes slow-pose estimates. Two interchangeable configurations
// register under the "slow_pose" role — "openvins" (default accuracy) and
// "fast" (§V-E's cheaper configuration) — demonstrating the paper's
// plug-n-play component swapping.
type VIOPlugin struct {
	Params  vio.Params
	Dataset *sensors.Dataset // initialization pose + camera model

	tracker VIOTracker
	camSub  *runtime.Subscription
	imuSub  *runtime.Subscription
	done    chan struct{}
}

// vioStarted, when set, sees every VIOPlugin's context at the end of
// Start, before the plugin can publish an estimate: this package's tests
// subscribe to the slow-pose topic there.
var vioStarted func(*VIOPlugin, *runtime.Context)

// Name implements runtime.Plugin.
func (p *VIOPlugin) Name() string { return "vio.msckf" }

// Start implements runtime.Plugin.
func (p *VIOPlugin) Start(ctx *runtime.Context) error {
	if p.Dataset == nil {
		return fmt.Errorf("vio plugin: dataset required")
	}
	init := integrator.State{
		Pos: p.Dataset.Traj.Position(0),
		Vel: p.Dataset.Traj.Velocity(0),
		Rot: p.Dataset.Traj.Orientation(0),
	}
	p.tracker = NewVIOTracker(p.Params, p.Dataset.Cam, init, tracerFrom(ctx), metricsFrom(ctx))
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
	if vioStarted != nil {
		vioStarted(p, ctx)
	}

	go func() {
		defer close(p.done)
		for ev := range p.camSub.C {
			frame, ok := ev.Value.(sensors.CameraFrame)
			if !ok {
				continue
			}
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
					p.tracker.AddIMU(s)
				}
			}
			est, ref := p.tracker.Frame(frame, ev.Trace)
			slowTopic.Publish(runtime.Event{T: est.T, Value: est, Trace: ref})
		}
	}()
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

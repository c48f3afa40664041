package core

import (
	"fmt"
	"time"

	"illixr/internal/audio"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// metricsFrom fetches the metrics registry the host registered on the
// phonebook (telemetry.RegistryService); nil — and therefore no-op
// instruments — when the run is uninstrumented.
func metricsFrom(ctx *runtime.Context) *telemetry.Registry {
	if v, ok := ctx.Phonebook.Lookup(telemetry.RegistryService); ok {
		if r, ok2 := v.(*telemetry.Registry); ok2 {
			return r
		}
	}
	return nil
}

// tracerFrom fetches the span collector the host registered on the
// phonebook (telemetry.TracerService).
func tracerFrom(ctx *runtime.Context) *telemetry.SpanCollector {
	if v, ok := ctx.Phonebook.Lookup(telemetry.TracerService); ok {
		if c, ok2 := v.(*telemetry.SpanCollector); ok2 {
			return c
		}
	}
	return nil
}

// This file implements live plugins: the same components wired onto the
// runtime's event streams (§II-B), used by the examples and the live
// (non-simulated) mode. Each plugin is interchangeable with any other
// implementation of its role that speaks the same topics.

// DatasetPlayerPlugin replays a pre-recorded dataset onto the IMU and
// camera topics — the paper's offline camera+IMU component, indistinguishable
// from a live camera to the rest of the system (§II-B).
type DatasetPlayerPlugin struct {
	Dataset *sensors.Dataset
	ctx     *runtime.Context
	imuIdx  int
	camIdx  int
	tracer  *telemetry.SpanCollector
}

// Name implements runtime.Plugin.
func (p *DatasetPlayerPlugin) Name() string { return "sensors.offline_player" }

// Start implements runtime.Plugin.
func (p *DatasetPlayerPlugin) Start(ctx *runtime.Context) error {
	if p.Dataset == nil {
		return fmt.Errorf("dataset player: no dataset")
	}
	p.ctx = ctx
	p.tracer = tracerFrom(ctx)
	return nil
}

// Stop implements runtime.Plugin.
func (p *DatasetPlayerPlugin) Stop() error { return nil }

// PumpUntil publishes all sensor events with timestamps ≤ t, in time
// order, and returns the number of events published. Examples drive this
// from their own loop (virtual-time playback).
func (p *DatasetPlayerPlugin) PumpUntil(t float64) int {
	imuTopic := p.ctx.Switchboard.GetTopic(runtime.TopicIMU)
	camTopic := p.ctx.Switchboard.GetTopic(runtime.TopicCamera)
	n := 0
	for p.imuIdx < len(p.Dataset.IMU) && p.Dataset.IMU[p.imuIdx].T <= t {
		s := p.Dataset.IMU[p.imuIdx]
		// each sensor sample roots a trace; downstream plugins parent the
		// event's span so lineage survives topic hops
		ref := p.tracer.Emit(CompIMU, 0, s.T, s.T)
		imuTopic.Publish(runtime.Event{T: s.T, Value: s, Trace: ref})
		p.imuIdx++
		n++
	}
	for p.camIdx < len(p.Dataset.Frames) && p.Dataset.Frames[p.camIdx].T <= t {
		f := p.Dataset.Frames[p.camIdx]
		ref := p.tracer.Emit(CompCamera, 0, f.T, f.T)
		camTopic.Publish(runtime.Event{T: f.T, Value: f, Trace: ref})
		p.camIdx++
		n++
	}
	return n
}

var _ runtime.Plugin = (*DatasetPlayerPlugin)(nil)

// The integrator's metric names, built once: an offload replica starts a
// BatchIntegrator per session.
var (
	integratorSamplesTotal = telemetry.MetricName(CompIntegrator, "samples_total")
	integratorPosesTotal   = telemetry.MetricName(CompIntegrator, "poses_total")
	integratorFeedNs       = telemetry.MetricName(CompIntegrator, "feed_ns")
)

// poseBatchMax is the most samples the integrator integrates between two
// fast-pose publishes. It is the deepest in-flight window any workload
// keeps (64 IMU samples per session on offload_saturate); without a bound
// an integrator that never catches up would never find its channel empty
// and would starve the fast-pose stream.
const poseBatchMax = 64

// BatchIntegrator is the IMU-integrator role's per-sample work, shared by
// IntegratorPlugin and the offload replica's session reader
// (DESIGN.md §9.2): every sample is integrated and counted, but of a
// backlog only the newest sample's pose is produced. The caller feeds
// samples and asks Due whether more are already waiting; Flush ends the
// batch. The first Feed of each batch is timed into
// illixr_integrator_feed_ns, so a consumer that keeps up times every
// sample and a backlog pays one clock pair per pose. Not safe for
// concurrent use.
type BatchIntegrator struct {
	in      integrator.Integrator
	tracer  *telemetry.SpanCollector
	samples *telemetry.Counter
	poses   *telemetry.Counter
	feedNs  *telemetry.Histogram

	newestT   float64
	newestRef telemetry.SpanRef
	pending   int // samples integrated since the last Flush
}

// NewBatchIntegrator starts an integrator at init that emits its spans
// into tracer and counts into reg; either may be nil. It returns the value
// so an owner can embed it in its own per-session state.
func NewBatchIntegrator(init integrator.State, tracer *telemetry.SpanCollector, reg *telemetry.Registry) BatchIntegrator {
	return BatchIntegrator{
		in:      *integrator.New(init),
		tracer:  tracer,
		samples: reg.Counter(integratorSamplesTotal),
		poses:   reg.Counter(integratorPosesTotal),
		feedNs:  reg.Histogram(integratorFeedNs),
	}
}

// Feed integrates one sample; ref is the span of the event that carried
// it, the integrator span's parent should this sample end the batch.
func (b *BatchIntegrator) Feed(s sensors.IMUSample, ref telemetry.SpanRef) {
	if b.pending == 0 && b.feedNs != nil {
		wall := time.Now()
		b.in.Feed(s)
		b.feedNs.Observe(float64(time.Since(wall).Nanoseconds()))
	} else {
		b.in.Feed(s)
	}
	b.samples.Inc()
	b.newestT, b.newestRef = s.T, ref
	b.pending++
}

// Due reports whether the batch should end now: a sample is pending, and
// either no further sample is already waiting (more is false) or
// poseBatchMax samples are pending.
func (b *BatchIntegrator) Due(more bool) bool {
	return b.pending > 0 && (!more || b.pending >= poseBatchMax)
}

// Flush ends the batch: it emits the integrator span under the newest
// sample's, counts the pose and returns the newest sample's T, the pose
// after it and the span.
func (b *BatchIntegrator) Flush() (float64, mathx.Pose, telemetry.SpanRef) {
	ref := b.tracer.Emit(CompIntegrator, b.newestRef.Trace, b.newestT, b.newestT, b.newestRef.Span)
	b.poses.Inc() // before the pose is out, so whoever sees it sees the count
	b.pending = 0
	return b.newestT, b.in.FastPose(), ref
}

// IntegratorPlugin subscribes synchronously to the IMU topic and publishes
// fast poses (the IMU-integrator role of Fig 2). The fast-pose stream is
// latest-wins from its source (DESIGN.md §9.2): every sample is
// integrated, but of a backlog the integrator finds queued only the
// newest sample's pose is published — when the channel runs empty, or
// after poseBatchMax samples. A consumer that keeps up sees one pose per
// sample, and the last sample of any burst always gets its pose.
type IntegratorPlugin struct {
	Initial integrator.State
	sub     *runtime.Subscription
	done    chan struct{}
}

// Name implements runtime.Plugin.
func (p *IntegratorPlugin) Name() string { return "integrator.rk4" }

// Start implements runtime.Plugin.
func (p *IntegratorPlugin) Start(ctx *runtime.Context) error {
	batch := NewBatchIntegrator(p.Initial, tracerFrom(ctx), metricsFrom(ctx))
	p.sub = ctx.Switchboard.GetTopic(runtime.TopicIMU).Subscribe(4096)
	p.done = make(chan struct{})
	fastTopic := ctx.Switchboard.GetTopic(runtime.TopicFastPose)
	publish := func() {
		t, pose, ref := batch.Flush()
		fastTopic.Publish(runtime.Event{T: t, Value: pose, Trace: ref})
	}
	go func() {
		defer close(p.done)
		for ev := range p.sub.C {
			if sample, ok := ev.Value.(sensors.IMUSample); ok {
				batch.Feed(sample, ev.Trace)
			}
			if batch.Due(len(p.sub.C) > 0) {
				publish()
			}
		}
		if batch.Due(false) {
			publish()
		}
	}()
	return nil
}

// Stop implements runtime.Plugin. Samples already on the subscription's
// channel are still integrated; a backlog beyond its fast tier (DESIGN.md
// §4) is dropped with the Cancel.
func (p *IntegratorPlugin) Stop() error {
	p.sub.Cancel()
	<-p.done
	return nil
}

var _ runtime.Plugin = (*IntegratorPlugin)(nil)

// AudioPlugin encodes a fixed source set per block and binauralizes it
// with the latest fast pose (asynchronous read), publishing stereo blocks.
type AudioPlugin struct {
	Order      int
	BlockSize  int
	SampleRate float64
	Sources    []audio.Source
	// Workers is the data-parallel worker count for the encode/playback
	// stages (0 or 1 = serial; output is bitwise identical either way).
	Workers int

	enc     *audio.Encoder
	play    *audio.Playback
	pool    *parallel.Pool // nil when serial; Stop closes it
	ctx     *runtime.Context
	tracer  *telemetry.SpanCollector
	blocks  *telemetry.Counter
	blockNs *telemetry.Histogram

	// pubBuf double-buffers the published stereo blocks: Playback.Process
	// returns its own reused scratch, so each publish copies into the slot
	// the previous event is not holding. The event values stay immutable
	// from the subscriber's point of view without a per-block allocation.
	pubBuf [2][2][]float64
	pubIdx int
}

// Name implements runtime.Plugin.
func (p *AudioPlugin) Name() string { return "audio.hoa" }

// Start implements runtime.Plugin.
func (p *AudioPlugin) Start(ctx *runtime.Context) error {
	if p.Order == 0 {
		p.Order = 2
	}
	if p.BlockSize == 0 {
		p.BlockSize = 1024
	}
	if p.SampleRate == 0 {
		p.SampleRate = 48000
	}
	p.ctx = ctx
	p.enc = audio.NewEncoder(p.Order, p.BlockSize, p.Sources)
	p.play = audio.NewPlayback(p.Order, p.BlockSize, p.SampleRate)
	p.tracer = tracerFrom(ctx)
	reg := metricsFrom(ctx)
	if p.Workers > 1 {
		p.pool = parallel.New(p.Workers)
		p.pool.Instrument(reg)
		p.enc.SetPool(p.pool)
		p.play.SetPool(p.pool)
	}
	p.blocks = reg.Counter(telemetry.MetricName("audio", "blocks_total"))
	p.blockNs = reg.Histogram(telemetry.MetricName("audio", "block_ns"))
	return nil
}

// Stop implements runtime.Plugin: it gives the kernel pool's helpers back.
func (p *AudioPlugin) Stop() error {
	p.pool.Close()
	return nil
}

// ProcessBlock encodes and binauralizes one block at session time t,
// publishing to the binaural topic and returning the stereo pair.
func (p *AudioPlugin) ProcessBlock(t float64) (left, right []float64) {
	wall := time.Now()
	pose := mathx.PoseIdentity()
	var poseRef telemetry.SpanRef
	if ev, ok := p.ctx.Switchboard.GetTopic(runtime.TopicFastPose).Latest(); ok {
		if fp, ok2 := ev.Value.(mathx.Pose); ok2 {
			pose = fp
			poseRef = ev.Trace
		}
	}
	field := p.enc.EncodeBlock()
	left, right = p.play.Process(field, pose)
	// Process returns playback-owned scratch: copy into the double buffer
	// so the published block survives the next ProcessBlock call.
	buf := &p.pubBuf[p.pubIdx]
	p.pubIdx = 1 - p.pubIdx
	if len(buf[0]) != len(left) {
		buf[0] = make([]float64, len(left))
		buf[1] = make([]float64, len(right))
	}
	copy(buf[0], left)
	copy(buf[1], right)
	// the binaural block descends from the fast pose it was rotated by
	ref := p.tracer.Emit(CompAudioPlay, poseRef.Trace, t, t, poseRef.Span)
	p.ctx.Switchboard.GetTopic(runtime.TopicBinaural).Publish(runtime.Event{
		T: t, Value: [2][]float64{buf[0], buf[1]}, Trace: ref,
	})
	p.blockNs.Observe(float64(time.Since(wall).Nanoseconds()))
	p.blocks.Inc()
	return left, right
}

var _ runtime.Plugin = (*AudioPlugin)(nil)

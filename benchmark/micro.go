package main

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"time"

	"illixr/internal/integrator"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/wire"
	"illixr/internal/parallel"
	"illixr/internal/qos"
	xrt "illixr/internal/runtime"
	"illixr/internal/telemetry"
)

// Micro rows time single public calls of one layer over memory, with no
// socket and no second goroutine unless the call is a hand-off. They give
// the per-frame costs the socket workloads cannot see on their own, in the
// same process and on the same inputs as the traced run.

const microBatches = 7

// perOpNs runs fn n times per batch and returns the median batch's
// nanoseconds per call.
func perOpNs(n int, fn func()) float64 {
	per := make([]float64, microBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// uplinkMix is one second of a session's uplink: 500 IMU frames with 15
// camera frames among them, traced the way the client sends them.
func uplinkMix(loop *sensorLoop) []wire.Frame {
	var frames []wire.Frame
	ref := telemetry.SpanRef{Trace: 7, Span: 9}
	cam := 0
	for i := 0; i < int(imuRateHz); i++ {
		for camT(cam) <= imuT(i) {
			frames = append(frames, wire.Frame{Type: wire.TypeCamera, Trace: ref, Payload: wire.AppendCamera(nil, loop.camera(cam))})
			cam++
		}
		frames = append(frames, wire.Frame{Type: wire.TypeIMU, Trace: ref, Payload: wire.AppendIMU(nil, loop.imu(i))})
	}
	return frames
}

// microRows fills the per-layer rows that are measured in isolation.
func microRows(res *result, loop *sensorLoop, workers int) {
	frames := uplinkMix(loop)
	var stream bytes.Buffer
	enc := wire.NewWriter(&stream)
	for _, f := range frames {
		_ = enc.WriteFrame(f) // bytes.Buffer writes cannot fail
	}
	encoded := stream.Bytes()
	n := float64(len(frames))

	// wire: encode, decode, raw relay, each one pass over the mix
	discard := wire.NewWriter(io.Discard)
	encodeNs := perOpNs(20, func() {
		for _, f := range frames {
			_ = discard.WriteFrame(f)
		}
	}) / n
	decodeNs := perOpNs(20, func() {
		r := wire.NewReader(bytes.NewReader(encoded))
		for {
			if _, err := r.ReadFrame(); err != nil {
				break
			}
		}
	}) / n
	hop := telemetry.SpanRef{Trace: 7, Span: 11}
	relay := func() {
		r := wire.NewReader(bytes.NewReader(encoded))
		for {
			raw, err := r.ReadRaw()
			if err != nil {
				break
			}
			raw.SetTrace(hop)
			discard.QueueRaw(raw)
			if discard.Queued() >= 16 {
				_ = discard.Flush()
			}
		}
		_ = discard.Flush()
	}
	relayNs := perOpNs(20, relay) / n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		relay()
	}
	runtime.ReadMemStats(&after)
	res.set("wire.encode_ns", encodeNs, "ns")
	res.set("wire.decode_ns", decodeNs, "ns")
	res.set("wire.relay_raw_ns", relayNs, "ns")
	res.set("wire.allocs_per_frame", float64(after.Mallocs-before.Mallocs)/(20*n), "count")
	res.set("wire.bytes_per_frame", float64(len(encoded))/n, "count")

	// integrator: one fed sample and the pose read back
	in := integrator.New(integrator.State{})
	ord := 0
	res.set("integrator.feed_ns", perOpNs(20000, func() {
		in.Feed(loop.imu(ord))
		_ = in.FastPose()
		ord++
	}), "ns")

	// switchboard: the publish call, and publish → a parked subscriber
	topic := xrt.NewSwitchboard().GetTopic("bench")
	sub := topic.Subscribe(64)
	handoffs := make([]float64, 0, 2000)
	got := make(chan int64)
	go func() {
		for ev := range sub.C {
			got <- nanos() - int64(ev.T)
		}
		close(got)
	}()
	var publishNs float64
	for i := 0; i < cap(handoffs); i++ {
		t0 := nanos()
		topic.Publish(xrt.Event{T: float64(t0)})
		publishNs += float64(nanos() - t0)
		handoffs = append(handoffs, float64(<-got)/1e3)
	}
	sub.Cancel()
	<-got
	res.set("runtime.publish_ns", publishNs/float64(len(handoffs)), "ns")
	res.set("runtime.handoff_us", median(handoffs), "us")

	// coordinator: place, admit and end one session
	coord := fleet.NewCoordinator(fleet.Config{TokenSeed: res.Seed})
	for i := 0; i < numReplicas; i++ {
		coord.AddReplica(i, nil)
	}
	hello := helloFor(res.Seed, "micro")
	res.set("fleet.coord_cycle_ns", perOpNs(5000, func() {
		id, err := coord.Pick(0, hello)
		if err != nil {
			return
		}
		if w, err := coord.AdmitOn(0, id, 1, hello); err == nil {
			coord.End(w.ResumeToken)
		}
	}), "ns")

	// kernel pool: one dispatch of empty tiles
	pool := parallel.New(workers)
	res.set("parallel.dispatch_us", perOpNs(2000, func() {
		pool.ForTiles("bench", 64, 1, func(lo, hi int) {})
	})/1e3, "us")

	// the off-by-default paths, so an issue that turns them on has a baseline
	if tap, err := binlog.NewWriter(io.Discard, binlog.Meta{Label: "bench"}, nil); err == nil {
		r := wire.NewReader(bytes.NewReader(encoded))
		raw, _ := r.ReadRaw() // the mix is never empty
		res.set("binlog.record_ns", perOpNs(20000, func() { _ = tap.RecordRaw(binlog.DirUp, raw) }), "ns")
		_ = tap.Close()
	}
	batcher := qos.NewBatcher(pool)
	res.set("qos.batch_submit_ns", perOpNs(2000, func() {
		for s := uint64(0); s < 8; s++ {
			batcher.Submit("bench", s, func() {})
		}
		batcher.Flush()
	})/8, "ns")
}

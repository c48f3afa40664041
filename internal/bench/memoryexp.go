package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"time"

	"illixr/internal/audio"
	"illixr/internal/core"
	"illixr/internal/hologram"
	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/perfmodel"
	"illixr/internal/quality"
	"illixr/internal/recycle"
	"illixr/internal/render"
	"illixr/internal/reprojection"
	xruntime "illixr/internal/runtime"
	"illixr/internal/telemetry"
)

// MemoryPathResult is one hot path's row of BENCH_memory.json: heap
// allocations per frame in steady state (pools warm), with the pools on
// and with recycling disabled (recycle.SetEnabled(false), i.e. the
// pre-recycling behaviour where every Get is a fresh make).
type MemoryPathResult struct {
	Name string `json:"name"`
	// Gated paths must show zero steady-state allocs/frame; Check fails
	// the build otherwise.
	Gated            bool    `json:"gated"`
	AllocsPerFrame   float64 `json:"allocs_per_frame"`
	BytesPerFrame    float64 `json:"bytes_per_frame"`
	UnpooledAllocs   float64 `json:"unpooled_allocs_per_frame"`
	UnpooledBytes    float64 `json:"unpooled_bytes_per_frame"`
	BytesReduction   float64 `json:"bytes_reduction"`
	UnpooledMeasured bool    `json:"unpooled_measured"`
}

// GCPauseStats summarizes the stop-the-world pauses of the GC cycles that
// completed during one measured loop (runtime.MemStats.PauseNs).
type GCPauseStats struct {
	Cycles uint32  `json:"cycles"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MaxNs  float64 `json:"max_ns"`
}

// MemoryEndToEnd is the composite per-frame loop (reprojection + SSIM +
// FLIP + hologram + audio + switchboard publish) measured pooled and
// unpooled; BytesReduction is the headline ≥10× claim.
type MemoryEndToEnd struct {
	Frames         int          `json:"frames"`
	AllocsPerFrame float64      `json:"allocs_per_frame"`
	BytesPerFrame  float64      `json:"bytes_per_frame"`
	UnpooledAllocs float64      `json:"unpooled_allocs_per_frame"`
	UnpooledBytes  float64      `json:"unpooled_bytes_per_frame"`
	BytesReduction float64      `json:"bytes_reduction"`
	GCPooled       GCPauseStats `json:"gc_pooled"`
	GCUnpooled     GCPauseStats `json:"gc_unpooled"`
}

// MTPGCResult compares the integrated run's MTP p99 under the default GC
// pacing (GOGC=100) and a tuned one (debug.SetGCPercent). The integrated
// scheduler runs in virtual time, so equal values are the expected PASS:
// they prove GC pacing cannot perturb the deterministic pipeline, while
// the wall-clock GC effect shows up in the end-to-end pause stats above.
type MTPGCResult struct {
	DefaultP99Ms float64 `json:"gogc_default_p99_ms"`
	TunedP99Ms   float64 `json:"gogc_tuned_p99_ms"`
	TunedPercent int     `json:"tuned_percent"`
	DurationSec  float64 `json:"duration_sec"`
}

// MemoryReport is the BENCH_memory.json document.
type MemoryReport struct {
	Iters    int                `json:"iters"`
	Note     string             `json:"note"`
	Paths    []MemoryPathResult `json:"paths"`
	EndToEnd MemoryEndToEnd     `json:"end_to_end"`
	MTP      MTPGCResult        `json:"mtp"`
}

const memoryNote = "allocs/bytes per frame are steady-state (pools and " +
	"plan/LUT caches warmed before measuring) on the serial path; " +
	"unpooled_* re-measures with recycle.SetEnabled(false), the " +
	"pre-recycling behaviour. Gated paths are enforced at zero by " +
	"MemoryReport.Check. The MTP comparison runs in virtual time, so " +
	"identical p99s are the expected pass (GC pacing cannot move the " +
	"deterministic schedule); the wall-clock GC benefit is the " +
	"gc_pooled vs gc_unpooled pause stats."

// Check is the allocation gate: the per-frame hot paths must be
// allocation-free in steady state and pooling must keep its headline
// heap-traffic reduction. With a baseline (the checked-in
// BENCH_memory.json) every baseline path must still be present, still
// gated if it was, and must not allocate more than it did there — so an
// allocation regression fails CI instead of landing silently.
func (rep *MemoryReport) Check(baseline *MemoryReport) []error {
	var f failures
	if len(rep.Paths) == 0 {
		f.addf("no paths in report")
	}
	gated := 0
	for _, p := range rep.Paths {
		if !p.Gated {
			continue
		}
		gated++
		if p.AllocsPerFrame != 0 || p.BytesPerFrame != 0 {
			f.addf("%s: %.2f allocs/frame %.0f bytes/frame in steady state, want 0",
				p.Name, p.AllocsPerFrame, p.BytesPerFrame)
		}
	}
	if gated == 0 {
		f.addf("no gated paths in report")
	}
	if rep.EndToEnd.AllocsPerFrame != 0 {
		f.addf("end-to-end loop: %.2f allocs/frame, want 0", rep.EndToEnd.AllocsPerFrame)
	}
	if rep.EndToEnd.BytesReduction < 10 {
		f.addf("end-to-end bytes/frame reduction %.1fx < 10x", rep.EndToEnd.BytesReduction)
	}

	if baseline == nil {
		return f
	}
	if len(baseline.Paths) == 0 {
		f.addf("no paths in baseline")
	}
	fresh := map[string]MemoryPathResult{}
	for _, p := range rep.Paths {
		fresh[p.Name] = p
	}
	for _, b := range baseline.Paths {
		p, ok := fresh[b.Name]
		if !ok {
			f.addf("baseline path %q missing from fresh report", b.Name)
			continue
		}
		if b.Gated && !p.Gated {
			f.addf("path %q was gated at the baseline but is not any more", b.Name)
		}
		if p.AllocsPerFrame > b.AllocsPerFrame {
			f.addf("path %q regressed: %.2f allocs/frame vs %.2f at the baseline",
				b.Name, p.AllocsPerFrame, b.AllocsPerFrame)
		}
	}
	return f
}

// memoryPath is one measured hot path; setup returns the per-frame body
// plus an optional teardown.
type memoryPath struct {
	name  string
	gated bool
	setup func() (run func(), teardown func())
}

// measureSteadyState warms the path, settles the heap, and measures heap
// allocation deltas over iters frames on the calling goroutine. The
// measurement runs at GOMAXPROCS=1: sync.Pool free-lists are per-P, so a
// goroutine migrating between Ps can miss the private slot it filled one
// frame earlier — a scheduler artifact, not an allocation the path
// performs.
func measureSteadyState(iters int, run func()) (allocsPerFrame, bytesPerFrame float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run() // warm pools, plan caches, and any lazily built scratch
	}
	runtime.GC()
	// A GC cycle detaches every sync.Pool's per-P local array; the first
	// use afterwards re-pins it (one-time allocations that would otherwise
	// be charged to the first measured frame). In true steady state no GC
	// runs — that is the point — so re-warm once before measuring.
	for i := 0; i < 2; i++ {
		run()
	}
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for i := 0; i < iters; i++ {
		run()
	}
	runtime.ReadMemStats(&m2)
	n := float64(iters)
	return float64(m2.Mallocs-m1.Mallocs) / n, float64(m2.TotalAlloc-m1.TotalAlloc) / n
}

// pausesBetween extracts the PauseNs entries of the GC cycles in
// (before.NumGC, after.NumGC], newest 256 only (the buffer is circular).
func pausesBetween(before, after *runtime.MemStats) []float64 {
	from := before.NumGC
	if after.NumGC > from+256 {
		from = after.NumGC - 256
	}
	var out []float64
	for c := from; c < after.NumGC; c++ {
		out = append(out, float64(after.PauseNs[c%256]))
	}
	return out
}

func gcStats(before, after *runtime.MemStats) GCPauseStats {
	p := pausesBetween(before, after)
	s := GCPauseStats{Cycles: after.NumGC - before.NumGC}
	if len(p) > 0 {
		s.P50Ns = mathx.Percentile(p, 50)
		s.P99Ns = mathx.Percentile(p, 99)
		for _, v := range p {
			if v > s.MaxNs {
				s.MaxNs = v
			}
		}
	}
	return s
}

// nopHandler is the minimal session.Handler for the netxr slot-path
// measurement: it accepts the handshake and discards inbound frames.
type nopHandler struct{}

func (nopHandler) SessionStart(*session.Session) error             { return nil }
func (nopHandler) SessionFrame(*session.Session, wire.Frame) error { return nil }
func (nopHandler) SessionEnd(*session.Session, error)              {}

// memoryPaths builds the per-path measurement table. All kernels run the
// serial (nil pool) path so every allocation lands on the measuring
// goroutine.
func memoryPaths() []memoryPath {
	return []memoryPath{
		{name: "reprojection", gated: true, setup: func() (func(), func()) {
			warp := reprojection.New(reprojection.DefaultParams())
			src := synthRGB(320, 180)
			renderPose := mathx.PoseIdentity()
			freshPose := mathx.Pose{
				Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, 0.02),
			}
			return func() {
				out := warp.Reproject(src, renderPose, freshPose)
				imgproc.PutRGB(out)
			}, nil
		}},
		{name: "ssim", gated: true, setup: func() (func(), func()) {
			a := synthGray(256, 256, 0)
			b := synthGray(256, 256, 0.05)
			return func() { _ = quality.SSIMPool(nil, a, b) }, nil
		}},
		{name: "flip", gated: true, setup: func() (func(), func()) {
			a := synthRGB(192, 192)
			b := synthRGB(192, 192)
			for i := range b.Pix {
				b.Pix[i] *= 0.97
			}
			return func() { _ = quality.OneMinusFLIPPool(nil, a, b) }, nil
		}},
		{name: "hologram", gated: true, setup: func() (func(), func()) {
			p := hologram.DefaultParams()
			p.Width, p.Height = 128, 128
			p.Iterations = 2
			spots := hologram.SpotsFromDepthPlanes(2, 4, 6e-4, 0.02)
			return func() {
				r := hologram.GeneratePool(nil, p, spots)
				hologram.ReleaseResult(&r)
			}, nil
		}},
		{name: "audio", gated: true, setup: func() (func(), func()) {
			sources := []audio.Source{
				audio.SpeechLikeSource("lecturer", 48000, 1, audio.DirectionFromAzEl(0.5, 0), 7),
				audio.SineSource("radio", 440, 48000, 1, audio.DirectionFromAzEl(-1.2, 0.2)),
			}
			enc := audio.NewEncoder(2, 512, sources)
			play := audio.NewPlayback(2, 512, 48000)
			pose := mathx.PoseIdentity()
			return func() {
				field := enc.EncodeBlock()
				_, _ = play.Process(field, pose)
			}, nil
		}},
		{name: "switchboard_publish", gated: true, setup: func() (func(), func()) {
			sb := xruntime.NewSwitchboard()
			topic := sb.GetTopic("bench_mem")
			sub := topic.Subscribe(1) // never drained: exercises latest-wins displacement
			val := &struct{ seq int }{1}
			ev := xruntime.Event{T: 1, Value: val}
			return func() { topic.Publish(ev) }, sub.Cancel
		}},
		{name: "netxr_latestwins", gated: false, setup: func() (func(), func()) {
			srv := session.NewServer(session.Config{}, nopHandler{})
			client, server := net.Pipe()
			sess := srv.HandleConn(server)
			if _, _, _, ok := handshake(client, wire.Hello{App: "bench"}); !ok {
				panic("bench: latest-wins path: handshake failed")
			}
			// From here the client stops reading: the writer goroutine blocks
			// on the synchronous pipe and every further Send displaces the
			// previous pose in its LatestWins slot — the pure slot path.
			var payload []byte
			p := wire.Pose{T: 1}
			run := func() {
				payload = wire.AppendPose(payload[:0], p)
				_ = sess.Send(wire.Frame{Type: wire.TypePose, Payload: payload}, session.LatestWins)
			}
			teardown := func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
				client.Close()
			}
			return run, teardown
		}},
	}
}

// measureMemoryPath measures one path pooled and (when the path honours
// the recycle switch) unpooled.
func measureMemoryPath(p memoryPath, iters int) MemoryPathResult {
	res := MemoryPathResult{Name: p.name, Gated: p.gated}

	run, teardown := p.setup()
	res.AllocsPerFrame, res.BytesPerFrame = measureSteadyState(iters, run)
	if teardown != nil {
		teardown()
	}

	// Unpooled baseline: recycling off, every Get is a fresh make. The
	// switchboard publish path never allocated (its hot path predates the
	// pools), so re-measuring it unpooled would be misleading.
	if p.name != "switchboard_publish" {
		prev := recycle.SetEnabled(false)
		run, teardown = p.setup()
		res.UnpooledAllocs, res.UnpooledBytes = measureSteadyState(iters, run)
		if teardown != nil {
			teardown()
		}
		recycle.SetEnabled(prev)
		res.UnpooledMeasured = true
		if res.BytesPerFrame > 0 {
			res.BytesReduction = res.UnpooledBytes / res.BytesPerFrame
		} else if res.UnpooledBytes > 0 {
			res.BytesReduction = res.UnpooledBytes // vs 0: report the raw saving
		}
	}
	return res
}

// endToEndFrame composes one synthetic display frame over every recycled
// subsystem; the returned closure is the per-frame body.
func endToEndFrame() (run func(), teardown func()) {
	warp := reprojection.New(reprojection.DefaultParams())
	src := synthRGB(320, 180)
	renderPose := mathx.PoseIdentity()
	freshPose := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, 0.02)}

	ga := synthGray(256, 256, 0)
	gb := synthGray(256, 256, 0.05)
	ca := synthRGB(192, 192)
	cb := synthRGB(192, 192)
	for i := range cb.Pix {
		cb.Pix[i] *= 0.97
	}

	hp := hologram.DefaultParams()
	hp.Width, hp.Height = 96, 96
	hp.Iterations = 2
	spots := hologram.SpotsFromDepthPlanes(2, 4, 6e-4, 0.02)

	sources := []audio.Source{
		audio.SpeechLikeSource("lecturer", 48000, 1, audio.DirectionFromAzEl(0.5, 0), 7),
		audio.SineSource("radio", 440, 48000, 1, audio.DirectionFromAzEl(-1.2, 0.2)),
	}
	enc := audio.NewEncoder(2, 512, sources)
	play := audio.NewPlayback(2, 512, 48000)
	pose := mathx.PoseIdentity()

	sb := xruntime.NewSwitchboard()
	topic := sb.GetTopic("bench_mem_e2e")
	sub := topic.Subscribe(1)
	val := &struct{ seq int }{1}
	ev := xruntime.Event{T: 1, Value: val}

	return func() {
		out := warp.Reproject(src, renderPose, freshPose)
		imgproc.PutRGB(out)
		_ = quality.SSIMPool(nil, ga, gb)
		_ = quality.OneMinusFLIPPool(nil, ca, cb)
		r := hologram.GeneratePool(nil, hp, spots)
		hologram.ReleaseResult(&r)
		field := enc.EncodeBlock()
		_, _ = play.Process(field, pose)
		topic.Publish(ev)
	}, sub.Cancel
}

// measureEndToEnd runs the composite loop pooled and unpooled, recording
// allocation rates and the GC pauses each mode incurred.
func measureEndToEnd(frames int) MemoryEndToEnd {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see measureSteadyState
	res := MemoryEndToEnd{Frames: frames}
	var before, after runtime.MemStats

	run, teardown := endToEndFrame()
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	run() // re-pin pool locals detached by the GC (see measureSteadyState)
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	teardown()
	n := float64(frames)
	res.AllocsPerFrame = float64(after.Mallocs-before.Mallocs) / n
	res.BytesPerFrame = float64(after.TotalAlloc-before.TotalAlloc) / n
	res.GCPooled = gcStats(&before, &after)

	prev := recycle.SetEnabled(false)
	run, teardown = endToEndFrame()
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	teardown()
	recycle.SetEnabled(prev)
	res.UnpooledAllocs = float64(after.Mallocs-before.Mallocs) / n
	res.UnpooledBytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	res.GCUnpooled = gcStats(&before, &after)

	if res.BytesPerFrame > 0 {
		res.BytesReduction = res.UnpooledBytes / res.BytesPerFrame
	} else {
		res.BytesReduction = res.UnpooledBytes // zero pooled bytes: report the raw saving
	}
	return res
}

// mtpP99 runs the integrated system at the given GC percent and returns
// the MTP p99 in milliseconds.
func mtpP99(durationSec float64, gcPercent int) float64 {
	old := debug.SetGCPercent(gcPercent)
	defer debug.SetGCPercent(old)
	plat, _ := perfmodel.PlatformByName("desktop")
	cfg := core.DefaultRunConfig(render.AppName("sponza"), plat)
	cfg.Duration = durationSec
	cfg.Seed = 42
	res := core.Run(cfg)
	return mathx.Percentile(res.MTPTotals(), 99)
}

// MemoryExperiment runs `illixr-bench -exp memory`: steady-state heap
// allocations per frame for each recycled hot path (pooled vs unpooled),
// GC pause stats for the composite loop, and the MTP-p99 GC-pacing check.
func MemoryExperiment(w io.Writer, iters int, mtpDurationSec float64) *MemoryReport {
	if mtpDurationSec <= 0 {
		mtpDurationSec = 10
	}
	rep := &MemoryReport{Iters: iters, Note: memoryNote}
	for _, p := range memoryPaths() {
		rep.Paths = append(rep.Paths, measureMemoryPath(p, iters))
	}
	rep.EndToEnd = measureEndToEnd(2 * iters)
	const tuned = 800
	rep.MTP = MTPGCResult{
		DefaultP99Ms: mtpP99(mtpDurationSec, 100),
		TunedP99Ms:   mtpP99(mtpDurationSec, tuned),
		TunedPercent: tuned,
		DurationSec:  mtpDurationSec,
	}

	t := &telemetry.Table{
		Title:  fmt.Sprintf("Steady-state heap traffic per frame (%d iters, pools warm)", iters),
		Header: []string{"Path", "gated", "allocs/frame", "bytes/frame", "unpooled allocs", "unpooled bytes", "reduction"},
	}
	for _, p := range rep.Paths {
		red := "-"
		if p.UnpooledMeasured {
			red = fmt.Sprintf("%.0fx", p.BytesReduction)
		}
		t.AddRow(p.Name, fmt.Sprintf("%v", p.Gated),
			f2(p.AllocsPerFrame), f2(p.BytesPerFrame),
			f2(p.UnpooledAllocs), f2(p.UnpooledBytes), red)
	}
	t.Render(w)

	e := rep.EndToEnd
	fmt.Fprintf(w, "\nend-to-end loop (%d frames): %.2f allocs/frame %.0f bytes/frame pooled vs %.2f / %.0f unpooled (%.0fx bytes reduction)\n",
		e.Frames, e.AllocsPerFrame, e.BytesPerFrame, e.UnpooledAllocs, e.UnpooledBytes, e.BytesReduction)
	fmt.Fprintf(w, "GC during loop: pooled %d cycles (p99 pause %.0f ns) vs unpooled %d cycles (p99 pause %.0f ns)\n",
		e.GCPooled.Cycles, e.GCPooled.P99Ns, e.GCUnpooled.Cycles, e.GCUnpooled.P99Ns)
	fmt.Fprintf(w, "MTP p99: %.2f ms at GOGC=100 vs %.2f ms at GOGC=%d (virtual-time scheduler: equal is the pass)\n",
		rep.MTP.DefaultP99Ms, rep.MTP.TunedP99Ms, rep.MTP.TunedPercent)
	return rep
}

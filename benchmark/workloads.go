package main

import (
	"runtime"
	"sort"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPaced    = "offload_paced"
	wlSaturate = "offload_saturate"
	wlChurn    = "session_churn"
	wlLive     = "live_pipeline"
)

var workloadNames = []string{wlPaced, wlSaturate, wlChurn, wlLive}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// End-to-end metric names, as BENCHMARK.json lists them. Every workload
// reports all of them; README.md says what each one times per workload.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mAllocs     = "allocs_per_op"
)

// latencyRows writes a workload's latency percentiles (d times toUs is
// microseconds) under the names every workload shares. They are per-layer
// rows, not end-to-end metrics: README.md says why.
func latencyRows(dst map[string]metric, d dist, toUs float64) {
	dst["latency.p50_us"] = metric{Value: d.P50 * toUs, Unit: "us"}
	dst["latency.p90_us"] = metric{Value: d.P90 * toUs, Unit: "us"}
	dst["latency.p99_us"] = metric{Value: d.P99 * toUs, Unit: "us"}
}

// setupRepeats is how many times an untraced run builds (and all but once
// discards) its set-up, so setup_s is a median and not one noisy reading.
const setupRepeats = 21

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runWorkload runs one workload once. Untraced it reports the end-to-end
// metrics; traced it reports the per-layer metrics, splitting the window
// into an untraced reference third and a traced remainder so the tracing
// overhead comes from the same process and inputs.
func runWorkload(name string, seed int64, seconds float64, traced bool) *result {
	res := &result{
		Workload: name, Seed: seed, Traced: traced, Seconds: seconds, Host: readHost(),
		Metrics: map[string]metric{}, Detail: map[string]metric{},
	}
	base := takeLeakBaseline()
	switch name {
	case wlPaced, wlSaturate:
		offloadWorkload(res, name == wlPaced)
	case wlChurn:
		churnWorkload(res)
	case wlLive:
		liveWorkload(res)
	}
	base.check(res)
	if traced {
		completePerLayer(res)
	}
	res.Failed += len(res.Checks)
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res
}

// leakBaseline is the process state a workload must return to.
type leakBaseline struct {
	goroutines int
	heap       uint64
}

const (
	// Parked kernel-pool helpers and the runtime's own background
	// goroutines may outlive a workload; anything beyond this many is a leak.
	goroutineSlack = 12
	// heapSlack allows for retained pools and span collectors that the
	// next GC cycle has not yet returned.
	heapSlack = 96 << 20
)

func takeLeakBaseline() leakBaseline {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return leakBaseline{goroutines: runtime.NumGoroutine(), heap: ms.HeapAlloc}
}

// check fails the run if goroutines or heap did not come back.
func (b leakBaseline) check(res *result) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > b.goroutines+goroutineSlack && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > b.goroutines+goroutineSlack {
		res.fail("goroutine leak: %d before the workload, %d after", b.goroutines, n)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > b.heap+heapSlack {
		res.fail("heap leak: %d MiB before the workload, %d MiB after", b.heap>>20, ms.HeapAlloc>>20)
	}
}

// offloadSetup is everything an offload window needs that is built before
// the first timed operation.
type offloadSetup struct {
	loop     *sensorLoop
	st       *stack
	sessions []*clientSession
}

// setUpOffload generates the inputs, starts the fleet and connects the
// sessions (through the gateway, or straight to replica 0 when direct).
func setUpOffload(seed int64, n int, tr *tracer, direct bool) (*offloadSetup, error) {
	o := &offloadSetup{loop: newSensorLoop(seed, offloadLoopSec)}
	var err error
	if o.st, err = startStack(seed, tr); err != nil {
		return nil, err
	}
	addr := o.st.gatewayAddr()
	if direct {
		addr = o.st.replicaAddr(0)
	}
	if o.sessions, err = connectSessions(addr, seed, n, tr); err != nil {
		_ = o.st.stop()
		return nil, err
	}
	return o, nil
}

// tearDown closes whatever sessions are still open, checks the fleet is
// empty and stops it.
func (o *offloadSetup) tearDown(closeSessions bool) error {
	if closeSessions {
		for _, cs := range o.sessions {
			cs.close()
		}
	}
	return tearDownFleet(o.st)
}

// tearDownFleet checks that no session is left anywhere and stops the fleet.
func tearDownFleet(st *stack) error {
	qerr := st.quiesce(stopTimeout)
	if err := st.stop(); err != nil {
		return err
	}
	return qerr
}

// offloadWindow sets up, runs one window and tears down.
func offloadWindow(res *result, paced bool, dur time.Duration, tr *tracer, direct bool) *offloadRun {
	o, err := setUpOffload(res.Seed, sessionsFor(res.Host), tr, direct)
	if err != nil {
		res.fail("set-up: %v", err)
		return nil
	}
	run := runOffload(o.st, o.sessions, o.loop, paced, dur, tr)
	if err := o.tearDown(false); err != nil {
		res.fail("teardown: %v", err)
	}
	return run
}

// timedSetups builds a workload's set-up setupRepeats times and reports the
// median build time as setup_s. discard tears down a build that will not be
// used; the last build is left standing for the caller's window.
func timedSetups(res *result, build, discard func() error) bool {
	times := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if err := build(); err != nil {
			res.fail("set-up: %v", err)
			return false
		}
		times = append(times, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			if err := discard(); err != nil {
				res.fail("teardown: %v", err)
			}
		}
	}
	res.set(mSetup, median(times), "s")
	return true
}

func offloadWorkload(res *result, paced bool) {
	if res.Traced {
		offloadTraced(res, paced)
		return
	}
	var o *offloadSetup
	build := func() (err error) {
		o, err = setUpOffload(res.Seed, sessionsFor(res.Host), nil, false)
		return err
	}
	if !timedSetups(res, build, func() error { return o.tearDown(true) }) {
		return
	}
	run := runOffload(o.st, o.sessions, o.loop, paced, window(res.Seconds), nil)
	if err := o.tearDown(false); err != nil {
		res.fail("teardown: %v", err)
	}
	reportOffload(res, run, paced)
}

// reportOffload turns a window into the end-to-end metrics and the
// workload's detail rows.
func reportOffload(res *result, run *offloadRun, paced bool) {
	rtt := summarize(run.rttUs)
	res.Attempted = run.winSent
	res.Failed = run.winSent - run.winAcked
	res.Checks = append(res.Checks, run.checks...)
	if run.winAcked == 0 {
		res.fail("no sample was acknowledged inside the window")
		return
	}
	res.set(mThroughput, float64(run.winAcked)/run.windowSec, "1/s")
	res.set(mAllocs, run.proc.Mallocs/float64(run.winAcked), "count")

	latencyRows(res.Detail, rtt, 1)
	res.detail("pose_rtt_p50_us", rtt.P50, "us")
	res.detail("pose_rtt_p99_us", rtt.P99, "us")
	res.detail("pose_rtt_samples", float64(rtt.N), "count")
	res.detail("imu_samples_per_s", float64(run.winAcked)/run.windowSec, "1/s")
	res.detail("poses_delivered_per_s", float64(run.winPoses)/run.windowSec, "1/s")
	res.detail("window_s", run.windowSec, "s")
	if paced {
		late := summarize(run.lateUs)
		res.detail("pose_miss_ratio", float64(run.winMissed+res.Failed)/float64(run.winSent), "ratio")
		res.detail("gen.late_p50_us", late.P50, "us")
		res.detail("gen.late_p99_us", late.P99, "us")
	}
	reportProc(res, run.proc, float64(run.winAcked))
	res.detail("recycle.hit_ratio", run.recycleHit, "ratio")
	res.detail("session.pose_displaced_ratio", run.displaced, "ratio")
	if run.neverAcked > 0 {
		res.fail("%d samples were never covered by a pose", run.neverAcked)
	}
}

// reportProc adds the process-cost rows for a window of ops operations.
func reportProc(res *result, p procDelta, ops float64) {
	res.detail("proc.cpu_us_per_op", p.CPUUs/ops, "us")
	res.detail("proc.gc_cycles", p.GCCycles, "count")
	res.detail("proc.gc_pause_ms", p.GCPauseM, "ms")
	res.detail("proc.peak_rss_mb", p.PeakRSSM, "mb")
}

// setUpChurn is the churn workload's set-up: inputs and a started fleet.
func setUpChurn(seed int64, tr *tracer) (*sensorLoop, *stack, error) {
	loop := newSensorLoop(seed, offloadLoopSec)
	st, err := startStack(seed, tr)
	return loop, st, err
}

func churnWorkload(res *result) {
	if res.Traced {
		churnTraced(res)
		return
	}
	var loop *sensorLoop
	var st *stack
	build := func() (err error) {
		loop, st, err = setUpChurn(res.Seed, nil)
		return err
	}
	if !timedSetups(res, build, func() error { return st.stop() }) {
		return
	}
	run := runChurn(st, loop, res.Seed, sessionsFor(res.Host), window(res.Seconds), nil)
	if err := tearDownFleet(st); err != nil {
		res.fail("teardown: %v", err)
	}
	reportChurn(res, run)
}

// reportChurn turns phases A and B into the end-to-end metrics and the
// workload's detail rows.
func reportChurn(res *result, run *churnRun) {
	res.Attempted = run.cycles + run.cycleFails + run.resumes + run.resumeFails
	res.Failed = run.cycleFails + run.resumeFails
	res.Checks = append(res.Checks, run.checks...)
	if run.cycles == 0 {
		res.fail("no lifecycle completed")
		return
	}
	admit, first, resume := summarize(run.admitUs), summarize(run.firstPoseUs), summarize(run.resumeUs)
	res.set(mThroughput, float64(run.cycles)/run.phaseASec, "1/s")
	res.set(mAllocs, run.procA.Mallocs/float64(run.cycles), "count")

	res.detail("session_cycles_per_s", float64(run.cycles)/run.phaseASec, "1/s")
	res.detail("session_cycles", float64(run.cycles), "count")
	res.detail("admit_p50_us", admit.P50, "us")
	res.detail("admit_p99_us", admit.P99, "us")
	latencyRows(res.Detail, first, 1)
	res.detail("first_pose_p50_us", first.P50, "us")
	res.detail("first_pose_p99_us", first.P99, "us")
	res.detail("resume_p50_us", resume.P50, "us")
	res.detail("resume_p99_us", resume.P99, "us")
	res.detail("resume_cycles", float64(run.resumes), "count")
	if run.resumes > 0 {
		res.detail("fleet.resume_retry_ratio", float64(run.retries)/float64(run.resumes), "ratio")
		res.detail("resumes_per_s", float64(run.resumes)/run.phaseBSec, "1/s")
	} else {
		res.fail("no resume cycle completed")
	}
	reportProc(res, run.procA, float64(run.cycles))
	res.detail("recycle.hit_ratio", run.recycleHit, "ratio")
}

func liveWorkload(res *result) {
	if res.Traced {
		liveTraced(res)
		return
	}
	workers := sessionsFor(res.Host)
	var l *liveSetup
	build := func() (err error) {
		// one virtual second per wall second is enough recording for any
		// loop slower than the 120 Hz display
		l, err = setUpLive(res.Seed, res.Seconds, workers, false)
		return err
	}
	if !timedSetups(res, build, func() error { return l.tearDown() }) {
		return
	}
	run := runLive(l, window(res.Seconds), 0, false)
	if err := l.tearDown(); err != nil {
		res.fail("teardown: %v", err)
	}
	reportLive(res, run)
	verifyLive(res, run, workers)
}

// verifyLive checks the displayed frames: against the checked-in golden
// where it applies, and against a second, independent run of the first
// frames in this process (any seed must reproduce itself).
func verifyLive(res *result, run *liveRun, workers int) {
	if len(run.checksums) == 0 {
		res.fail("the window was too short to display frame %d", checksumEvery)
		return
	}
	if err := checkGolden(res.Seed, res.Host.GOARCH, run.checksums); err != nil {
		res.fail("%v", err)
	}
	l, err := setUpLive(res.Seed, float64(replayFrames)/displayHz+0.1, workers, false)
	if err != nil {
		res.fail("replay set-up: %v", err)
		return
	}
	again := runLive(l, 0, replayFrames, false)
	if err := l.tearDown(); err != nil {
		res.fail("replay teardown: %v", err)
	}
	res.Checks = append(res.Checks, again.checks...)
	if len(again.checksums) == 0 || again.checksums[0] != run.checksums[0] {
		res.fail("displayed frame %d is not reproducible: %v then %v", checksumEvery, run.checksums[:1], again.checksums)
	}
}

// reportLive turns a frame-loop window into the end-to-end metrics and the
// workload's detail rows.
func reportLive(res *result, run *liveRun) {
	res.Attempted = run.frames + run.frameFails
	res.Failed = run.frameFails
	res.Checks = append(res.Checks, run.checks...)
	if run.frames == 0 {
		res.fail("no frame completed")
		return
	}
	frame, mtp := summarize(run.frameMs), summarize(run.mtpMs)
	res.set(mThroughput, float64(run.frames)/run.elapsedSec, "1/s")
	res.set(mAllocs, run.proc.Mallocs/float64(run.frames), "count")

	res.detail("frames_per_s", float64(run.frames)/run.elapsedSec, "1/s")
	res.detail("frames", float64(run.frames), "count")
	res.detail("frame_p50_ms", frame.P50, "ms")
	res.detail("frame_p99_ms", frame.P99, "ms")
	latencyRows(res.Detail, mtp, 1e3)
	res.detail("mtp_p50_ms", mtp.P50, "ms")
	res.detail("mtp_p99_ms", mtp.P99, "ms")
	res.detail("runtime.perception_wait_ms", median(run.waitMs), "ms")
	res.detail("render.frame_ms", median(run.renderMs), "ms")
	res.detail("reprojection.warp_ms", median(run.warpMs), "ms")
	res.detail("audio.block_ms", median(run.audioMs), "ms")
	res.detail("camera_frames", float64(run.camPublished), "count")
	res.Checksums = run.checksums
	reportProc(res, run.proc, float64(run.frames))
	res.detail("recycle.hit_ratio", run.recycleHit, "ratio")
}

package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/netxr/bridge"
	"illixr/internal/telemetry"
)

const (
	// churnSamples is how many IMU samples a lifecycle (and each leg of a
	// resume cycle) streams before it waits for the covering pose.
	churnSamples = 16
	// maxLifecycles keeps phase A under the ephemeral-port range (28 232
	// ports here, each lifecycle parking one client port in TIME_WAIT)
	// however fast the stack gets; a run that reaches it just ends early.
	maxLifecycles = 24000
	// maxResumes bounds phase B the same way.
	maxResumes = 2000
	// resumeShare is the part of the window phase B gets.
	resumeShare = 0.25
)

// lifecycleStamps are the client-side boundaries of one lifecycle, in
// nanos(); the trace adds the replica-side ones.
type lifecycleStamps struct {
	label                                             string
	start, connected, welcomed, attached, posed, done int64
}

// churnRun is what phases A and B hand back.
type churnRun struct {
	admitUs, firstPoseUs, resumeUs []float64
	cycles, cycleFails             int
	resumes, resumeFails           int
	retries                        int
	phaseASec, phaseBSec           float64
	procA                          procDelta
	checks                         []string
	recycleHit                     float64
}

// awaitPose waits for the pose that covers ordinal ord: the stream ends
// there, so the covering pose must be that very sample's.
func awaitPose(cs *clientSession, ord int, timer *time.Timer) (mathx.Pose, error) {
	want := imuT(ord)
	T, pose, err := awaitCover(cs.poseSub, want, timer)
	switch {
	case err != nil && cs.cl.Err() != nil:
		return pose, fmt.Errorf("%v (%w)", err, cs.cl.Err())
	case err != nil:
		return pose, err
	case T != want:
		return pose, fmt.Errorf("covering pose has T=%v, want the last sample's %v", T, want)
	}
	return pose, nil
}

// runChurn runs phase A (whole lifecycles) and phase B (sever and resume)
// against a started stack.
func runChurn(st *stack, loop *sensorLoop, seed int64, workers int, dur time.Duration, tr *tracer) *churnRun {
	run := &churnRun{}
	var mu sync.Mutex // guards run's slices and counters across workers
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(run.checks) < 8 { // the first few say what went wrong
			run.checks = append(run.checks, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	// what every lifecycle's covering pose must equal, bit for bit
	in := integrator.New(integrator.State{})
	for i := 0; i < churnSamples; i++ {
		in.Feed(loop.imu(i))
	}
	wantPose := in.FastPose()

	// --- phase A ---------------------------------------------------------
	durB := time.Duration(float64(dur) * resumeShare)
	deadlineA := time.Now().Add(dur - durB)
	var started atomic.Int64
	hitsBefore := recycleSnapshot()
	procBefore := readProc()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(poseWait)
			defer timer.Stop()
			var admit, first []float64
			ok, bad := 0, 0
			for time.Now().Before(deadlineA) {
				k := started.Add(1)
				if k > maxLifecycles {
					break
				}
				stamps, err := lifecycle(st.gatewayAddr(), seed, fmt.Sprintf("churn-%d", k), loop, wantPose, timer, tr)
				if err != nil {
					bad++
					fail("lifecycle %d: %v", k, err)
					continue
				}
				ok++
				admit = append(admit, float64(stamps.welcomed-stamps.start)/1e3)
				first = append(first, float64(stamps.posed-stamps.start)/1e3)
				tr.lifecycle(stamps)
			}
			mu.Lock()
			run.admitUs = append(run.admitUs, admit...)
			run.firstPoseUs = append(run.firstPoseUs, first...)
			run.cycles += ok
			run.cycleFails += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.phaseASec = time.Since(t0).Seconds()
	run.procA = procBefore.until(readProc())
	run.recycleHit = hitsBefore.ratioUntil(recycleSnapshot())
	if err := st.quiesce(stopTimeout); err != nil {
		fail("after phase A: %v", err)
	}

	// --- phase B ---------------------------------------------------------
	deadlineB := time.Now().Add(durB)
	var resumed atomic.Int64
	t0 = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, ok, bad, retries := resumeLoop(st.gatewayAddr(), seed, w, loop, deadlineB, &resumed, tr, fail)
			mu.Lock()
			run.resumeUs = append(run.resumeUs, lat...)
			run.resumes += ok
			run.resumeFails += bad
			run.retries += retries
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.phaseBSec = time.Since(t0).Seconds()
	return run
}

// lifecycle is one phase A cycle: connect, be admitted through the gateway,
// stream churnSamples, see the covering pose, say Bye, close.
func lifecycle(addr string, seed int64, label string, loop *sensorLoop, want mathx.Pose, timer *time.Timer, tr *tracer) (lifecycleStamps, error) {
	s := lifecycleStamps{label: label, start: nanos()}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return s, fmt.Errorf("connect: %w", err)
	}
	s.connected = nanos()
	conn = tr.wrapConn(conn, roleClient)
	spans := telemetry.NewSpanCollector(0)
	cl, err := bridge.DialWith(conn, helloFor(seed, label), bridge.DialOptions{Tracer: spans})
	if err != nil {
		return s, fmt.Errorf("admission: %w", err)
	}
	s.welcomed = nanos()
	cs, err := attach(conn, cl, spans)
	if err != nil {
		return s, fmt.Errorf("client runtime: %w", err)
	}
	s.attached = nanos()
	for i := 0; i < churnSamples; i++ {
		cs.publishIMU(loop.imu(i))
	}
	pose, err := awaitPose(cs, churnSamples-1, timer)
	s.posed = nanos()
	if err == nil && pose != want {
		err = fmt.Errorf("covering pose differs from the local integrator: got %+v want %+v", pose, want)
	}
	cs.close()
	s.done = nanos()
	return s, err
}

// resumeLoop is one phase B worker: a session that is severed (no Bye) and
// resumed over and over, each leg streaming churnSamples more samples.
func resumeLoop(addr string, seed int64, worker int, loop *sensorLoop, deadline time.Time, count *atomic.Int64, tr *tracer, fail func(string, ...any)) (latUs []float64, ok, bad, retries int) {
	var raw net.Conn
	spans := telemetry.NewSpanCollector(0)
	rd := &bridge.Redialer{
		Dial: func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				return nil, err
			}
			raw = tr.wrapConn(c, roleClient)
			return raw, nil
		},
		Hello:  helloFor(seed, fmt.Sprintf("resume-%d", worker)),
		Tracer: spans,
		Window: bridge.NewSendWindow(0),
	}
	timer := time.NewTimer(poseWait)
	defer timer.Stop()

	next := 0 // next IMU ordinal of this session's stream
	leg := func() (*clientSession, error) {
		cl, err := rd.Connect()
		if err != nil {
			return nil, err
		}
		cs, err := attach(raw, cl, spans)
		if err != nil {
			return nil, err
		}
		for i := 0; i < churnSamples; i++ {
			cs.publishIMU(loop.imu(next))
			next++
		}
		if _, err := awaitPose(cs, next-1, timer); err != nil {
			cs.close()
			return nil, err
		}
		return cs, nil
	}

	cs, err := leg()
	if err != nil {
		fail("resume worker %d: first connect: %v", worker, err)
		return nil, 0, 1, 0
	}
	for time.Now().Before(deadline) && count.Add(1) <= maxResumes {
		t0 := nanos()
		_ = raw.Close() // sever: the gateway sees the link drop, no Bye
		cs.poseSub.Cancel()
		_ = cs.loader.Shutdown()
		if cs, err = leg(); err != nil {
			bad++
			fail("resume worker %d: %v", worker, err)
			return latUs, ok, bad, retries
		}
		if !cs.cl.Welcome().Resumed {
			bad++
			fail("resume worker %d: Welcome without Resumed", worker)
			continue
		}
		ok++
		latUs = append(latUs, float64(nanos()-t0)/1e3)
	}
	cs.close()
	retries = rd.Attempts() - 1 - ok - bad
	return latUs, ok, bad, retries
}

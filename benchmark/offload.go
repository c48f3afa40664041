package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/telemetry"
)

const (
	// saturateWindow is how many IMU samples a saturating session keeps
	// unacknowledged.
	saturateWindow = 64
	// offloadWarmup runs before the timed window so lazily started
	// goroutines, buffers and pools are in steady state when timing begins.
	offloadWarmup = time.Second
	// imuDeadlineNs is Table III's IMU-pipeline deadline: a covering pose
	// later than this is a miss.
	imuDeadlineNs = 2 * int64(time.Millisecond)
	// ackGrace bounds the wait for the last covering poses after the
	// generators stop.
	ackGrace = 3 * time.Second
	// sendRing remembers the send time of recent samples by ordinal. It
	// only has to outlast the longest stretch of unacknowledged samples.
	sendRing = 1 << 14
	// poseKeepEvery thins the delivered poses kept for the bit-equality
	// check (the issue asks for at least 1 in 64).
	poseKeepEvery = 8
	maxKeptPoses  = 1 << 20
)

type keptPose struct {
	ord  int
	pose mathx.Pose
}

// windowEdges are the timed window's bounds in nanos(); both stay at
// MaxInt64 (nothing is inside) until the run's main goroutine sets them.
type windowEdges struct{ from, to atomic.Int64 }

func newWindowEdges() *windowEdges {
	w := &windowEdges{}
	w.from.Store(math.MaxInt64)
	w.to.Store(math.MaxInt64)
	return w
}

func (w *windowEdges) contains(now int64) bool { return now >= w.from.Load() && now < w.to.Load() }

// offloadSession is one client's generator and receiver state.
type offloadSession struct {
	idx  int
	cs   *clientSession
	loop *sensorLoop
	win  *windowEdges

	sendNs [sendRing]atomic.Int64
	sent   atomic.Int64 // samples published so far
	acked  atomic.Int64 // samples covered by a delivered pose so far
	wake   chan struct{}

	// receiver-owned
	rttNs     []uint32
	winAcked  int
	winMissed int
	delivered int
	winPoses  int
	kept      []keptPose
	poseErr   error
	recvDone  chan struct{}
	genDone   chan struct{}
	lateNs    []uint32 // generator-owned until genDone closes
	winSent   int      // generator-owned until genDone closes
	st        *sessTrace
	stop      atomic.Bool
}

// offloadRun is what a paced or saturating run hands back.
type offloadRun struct {
	rttUs      []float64
	lateUs     []float64
	winSent    int
	winAcked   int
	winMissed  int
	winPoses   int
	totalSent  int
	neverAcked int
	windowSec  float64
	proc       procDelta
	checks     []string // failed output checks, empty when all hold
	recycleHit float64
	displaced  float64
}

// runOffload drives S sessions through the gateway (or straight at replica
// 0 when direct) for the given window. paced selects the open-loop 500 Hz
// schedule; otherwise each session keeps saturateWindow samples in flight.
func runOffload(st *stack, sessions []*clientSession, loop *sensorLoop, paced bool, window time.Duration, tr *tracer) *offloadRun {
	win := newWindowEdges()
	estimate := int(window.Seconds() * imuRateHz * 1.2)
	if !paced {
		estimate = int(window.Seconds() * 300e3)
	}
	loads := make([]*offloadSession, len(sessions))
	for i, cs := range sessions {
		s := &offloadSession{
			idx: i, cs: cs, loop: loop, win: win,
			wake:     make(chan struct{}, 1),
			rttNs:    make([]uint32, 0, estimate),
			kept:     make([]keptPose, 0, 1<<16),
			recvDone: make(chan struct{}),
			genDone:  make(chan struct{}),
			st:       tr.session(cs.conn),
		}
		if paced {
			s.lateNs = make([]uint32, 0, estimate)
		}
		loads[i] = s
		go s.receive()
	}

	start := time.Now().Add(20 * time.Millisecond)
	for _, s := range loads {
		if paced {
			// independent devices are not phase-locked: spread the sessions
			// evenly over one IMU period
			offset := time.Duration(float64(s.idx) / float64(len(loads)) / imuRateHz * float64(time.Second))
			go s.generatePaced(start.Add(offset))
		} else {
			go s.generateSaturating()
		}
	}

	time.Sleep(time.Until(start) + offloadWarmup)
	hitsBefore := recycleSnapshot()
	dropBefore, sentBefore := st.counter(metricSendDropped), st.counter(metricSentFrames)
	procBefore := readProc()
	t0 := nanos()
	win.from.Store(t0)
	time.Sleep(window)
	t1 := nanos()
	win.to.Store(t1)
	procAfter := readProc()
	dropAfter, sentAfter := st.counter(metricSendDropped), st.counter(metricSentFrames)
	hitsAfter := recycleSnapshot()

	// stop the generators, then give the tail of the stream time to be
	// covered before the receivers are cut off
	for _, s := range loads {
		s.stop.Store(true)
		s.signal()
		<-s.genDone
	}
	deadline := time.Now().Add(ackGrace)
	for _, s := range loads {
		for s.acked.Load() < s.sent.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	run := &offloadRun{windowSec: float64(t1-t0) / 1e9, proc: procBefore.until(procAfter)}
	run.recycleHit = hitsBefore.ratioUntil(hitsAfter)
	if d, s := float64(dropAfter-dropBefore), float64(sentAfter-sentBefore); d+s > 0 {
		run.displaced = d / (d + s)
	}
	// output checks run against the live stack, before the sessions close
	for _, s := range loads {
		run.totalSent += int(s.sent.Load())
		run.neverAcked += int(s.sent.Load() - s.acked.Load())
	}
	if got := st.counter(metricIntegratorSamples); got != uint64(run.totalSent) {
		run.checks = append(run.checks, fmt.Sprintf("replicas integrated %d samples, clients sent %d", got, run.totalSent))
	}
	if n := st.counter(metricDecodeErrors); n != 0 {
		run.checks = append(run.checks, fmt.Sprintf("%d replica decode errors", n))
	}

	for _, s := range loads {
		s.cs.close() // cancels the pose subscription, which ends the receiver
		<-s.recvDone
		for _, ns := range s.rttNs {
			run.rttUs = append(run.rttUs, float64(ns)/1e3)
		}
		for _, ns := range s.lateNs {
			run.lateUs = append(run.lateUs, float64(ns)/1e3)
		}
		run.winSent += s.winSent
		run.winAcked += s.winAcked
		run.winMissed += s.winMissed
		run.winPoses += s.winPoses
		if s.poseErr != nil {
			run.checks = append(run.checks, fmt.Sprintf("session %d: %v", s.idx, s.poseErr))
		}
		if err := s.verifyPoses(); err != nil {
			run.checks = append(run.checks, fmt.Sprintf("session %d: %v", s.idx, err))
		}
	}
	return run
}

// publish sends sample i (and any camera frame due before it) and records
// its actual send time.
func (s *offloadSession) publish(i int, nextCam *int) {
	for camT(*nextCam) <= imuT(i) {
		s.cs.publishCamera(s.loop.camera(*nextCam))
		*nextCam++
	}
	sample := s.loop.imu(i)
	now := nanos()
	// the generator alone decides whether a sample belongs to the window,
	// and says so in the low bit of the stored send time: the receiver
	// reading the window's edges later could decide differently
	stamp := now << 1
	if s.win.contains(now) {
		s.winSent++
		stamp |= 1
	}
	s.sendNs[i%sendRing].Store(stamp)
	s.st.published(i, now)
	s.sent.Store(int64(i + 1))
	s.cs.publishIMU(sample)
}

// generatePaced publishes on the sensors' own schedule. The loop is open:
// a late wake-up is followed by catching up, never by skipping. Each sample
// is timed from its actual send; how late that was is reported separately.
func (s *offloadSession) generatePaced(start time.Time) {
	defer close(s.genDone)
	nextCam := 0
	for i := 0; !s.stop.Load(); i++ {
		due := start.Add(time.Duration(imuT(i) * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		if s.win.contains(nanos()) {
			s.lateNs = append(s.lateNs, clampU32(int64(late)))
		}
		s.publish(i, &nextCam)
	}
}

// generateSaturating keeps saturateWindow samples unacknowledged.
func (s *offloadSession) generateSaturating() {
	defer close(s.genDone)
	nextCam := 0
	for i := 0; !s.stop.Load(); i++ {
		for int64(i)-s.acked.Load() >= saturateWindow {
			// a stalled stack parks the generator here; the run's end wakes it
			<-s.wake
			if s.stop.Load() {
				return
			}
		}
		s.publish(i, &nextCam)
	}
}

// receive acknowledges samples from the client's fast-pose subscription:
// sample i is covered by the first pose whose T is at least the sample's,
// which stays correct when the downlink's latest-wins slot drops poses.
func (s *offloadSession) receive() {
	defer close(s.recvDone)
	next := 0
	for ev := range s.cs.poseSub.C {
		now := nanos()
		pose, ok := ev.Value.(mathx.Pose)
		if !ok {
			s.poseErr = fmt.Errorf("fast-pose event carries %T", ev.Value)
			continue
		}
		s.delivered++
		if s.win.contains(now) {
			s.winPoses++
		}
		ord := int(math.Round(ev.T * imuRateHz))
		if s.delivered%poseKeepEvery == 0 && len(s.kept) < maxKeptPoses {
			s.kept = append(s.kept, keptPose{ord: ord, pose: pose})
		}
		sent := int(s.sent.Load())
		for next < sent && next <= ord {
			stamp := s.sendNs[next%sendRing].Load()
			if stamp&1 == 1 {
				rtt := now - stamp>>1
				s.rttNs = append(s.rttNs, clampU32(rtt))
				s.winAcked++
				if rtt > imuDeadlineNs {
					s.winMissed++
				}
			}
			s.st.acked(next, now, ord)
			next++
		}
		s.acked.Store(int64(next))
		s.signal()
	}
}

// signal wakes the generator if it is parked on a full window.
func (s *offloadSession) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// verifyPoses replays the stream through a local integrator and demands
// bit-equal poses: the offloaded pipeline must compute exactly what the
// in-process one would.
func (s *offloadSession) verifyPoses() error {
	if len(s.kept) == 0 {
		return fmt.Errorf("no delivered pose to verify")
	}
	in := integrator.New(integrator.State{})
	fed := 0
	for _, k := range s.kept {
		for ; fed <= k.ord; fed++ {
			in.Feed(s.loop.imu(fed))
		}
		if fed != k.ord+1 {
			return fmt.Errorf("delivered poses out of order at sample %d", k.ord)
		}
		if got, want := k.pose, in.FastPose(); got != want {
			return fmt.Errorf("pose for sample %d differs from the local integrator: got %+v want %+v", k.ord, got, want)
		}
	}
	return nil
}

func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// Names of the replica-side counters the checks and ratios read.
var (
	metricIntegratorSamples = telemetry.MetricName(core.CompIntegrator, "samples_total")
	metricDecodeErrors      = telemetry.MetricName("netxr", "decode_errors_total")
	metricSendDropped       = telemetry.MetricName("netxr", "send_dropped_total")
	metricSentFrames        = telemetry.MetricName("netxr", "sent_frames_total")
)

// connectSessions opens n sessions against addr, labelled so the trace can
// tell their conns apart.
func connectSessions(addr string, seed int64, n int, tr *tracer) ([]*clientSession, error) {
	var wg sync.WaitGroup
	out := make([]*clientSession, n)
	errs := make([]error, n)
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = connect(addr, helloFor(seed, fmt.Sprintf("bench-s%d", i)), tr)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, cs := range out {
				if cs != nil {
					cs.close()
				}
			}
			return nil, err
		}
	}
	return out, nil
}

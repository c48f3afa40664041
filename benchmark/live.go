package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"illixr/internal/audio"
	"illixr/internal/core"
	"illixr/internal/imgproc"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/render"
	"illixr/internal/reprojection"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/vio"
)

const (
	liveW, liveH   = 320, 180
	displayHz      = 120.0
	audioHz        = 48.0
	checksumEvery  = 60
	liveWarmFrames = 24 // first frames start pools and helper goroutines; not timed
	replayFrames   = checksumEvery
	vioDrainWait   = 30 * time.Second
)

// liveSetup is the in-process pipeline: sensor player, integrator, VIO and
// audio plugins on one loader, plus the application renderer and the
// reprojector the frame loop calls.
type liveSetup struct {
	ds       *sensors.Dataset
	scene    *render.Scene
	loader   *runtime.Loader
	player   *core.DatasetPlayerPlugin
	audio    *core.AudioPlugin
	renderer *render.Renderer
	rp       *reprojection.Reprojector
	pool     *parallel.Pool // traced runs only: the reprojector's pool, collecting tile times
	poseSub  *runtime.Subscription
	slow     *runtime.Topic
}

// setUpLive generates the recording and the scene from the seed and starts
// the plugins. workers sizes the kernel pools.
func setUpLive(seed int64, virtualSec float64, workers int, traced bool) (*liveSetup, error) {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Name = "bench-live"
	cfg.Duration = virtualSec
	cfg.IMURateHz, cfg.CamRateHz = imuRateHz, camRateHz
	cfg.Seed = seed
	ds := sensors.GenerateDataset(cfg)

	l := &liveSetup{
		ds:       ds,
		scene:    render.BuildScene(render.AppSponza, seed),
		loader:   runtime.NewLoader(),
		player:   &core.DatasetPlayerPlugin{Dataset: ds},
		renderer: render.NewRenderer(liveW, liveH),
	}
	params := reprojection.DefaultParams()
	params.Workers = workers
	l.rp = reprojection.New(params)
	if traced {
		l.pool = parallel.New(workers)
		l.pool.CollectTiles(true)
		l.rp.SetPool(l.pool)
	}
	l.audio = &core.AudioPlugin{
		Workers: workers,
		Sources: []audio.Source{
			audio.SpeechLikeSource("lecturer", 48000, 2, audio.DirectionFromAzEl(0.5, 0), 7),
			audio.SineSource("radio", 440, 48000, 2, audio.DirectionFromAzEl(-1.2, 0.2)),
		},
	}
	sb := l.loader.Context().Switchboard
	l.poseSub = sb.GetTopic(runtime.TopicFastPose).Subscribe(1024)
	l.slow = sb.GetTopic(runtime.TopicSlowPose)
	init := integrator.State{Pos: ds.Traj.Position(0), Vel: ds.Traj.Velocity(0), Rot: ds.Traj.Orientation(0)}
	for _, p := range []runtime.Plugin{
		l.player,
		&core.IntegratorPlugin{Initial: init},
		&core.VIOPlugin{Params: vio.DefaultParams(), Dataset: ds},
		l.audio,
	} {
		if err := l.loader.Load(p); err != nil {
			_ = l.loader.Shutdown()
			return nil, err
		}
	}
	return l, nil
}

func (l *liveSetup) tearDown() error {
	l.poseSub.Cancel()
	return l.loader.Shutdown()
}

// liveRun is what a frame-loop window hands back.
type liveRun struct {
	frames, frameFails int
	elapsedSec         float64
	frameMs, mtpMs     []float64
	waitMs, renderMs   []float64
	warpMs, audioMs    []float64 // audioMs is per ProcessBlock call, the rest per frame
	checksums          []string  // one per checksumEvery frames, from frame 60 on
	camPublished       int
	vioEstimates       int
	vioMs              []float64
	vioBacklogMax      int
	proc               procDelta
	recycleHit         float64
	checks             []string
	spans              []frameSpans
}

// frameSpans are one frame's layer boundaries, in nanos().
type frameSpans struct {
	frame                                         int
	start, posed, rendered, fresh, warped, audioD int64
	end                                           int64
}

// playCursor mirrors the player's position in the recording, so the loop
// knows which sample a pump published last and when each camera frame went
// out.
type playCursor struct {
	imu, cams int     // index of the last IMU sample published; camera frames published
	camAt     []int64 // nanos() at which camera frame i was published
}

// pumpAndWait publishes every sensor event up to virtual time t and blocks
// until the fast-pose topic covers the last IMU sample published.
func (l *liveSetup) pumpAndWait(t float64, cur *playCursor, timer *time.Timer) (mathx.Pose, error) {
	l.player.PumpUntil(t)
	now := nanos()
	for cur.imu+1 < len(l.ds.IMU) && l.ds.IMU[cur.imu+1].T <= t {
		cur.imu++
	}
	for cur.cams < len(l.ds.Frames) && l.ds.Frames[cur.cams].T <= t {
		cur.camAt = append(cur.camAt, now)
		cur.cams++
	}
	_, pose, err := awaitCover(l.poseSub, l.ds.IMU[cur.imu].T, timer)
	return pose, err
}

// runLive drives the frame loop: per 120 Hz virtual frame, sensors up to
// mid-frame → pose → render; sensors up to the frame time → fresh pose →
// reproject; audio blocks due; every 60th displayed frame is checksummed.
// The loop is unpaced and closed: the next frame starts when this one is
// done. It ends at the deadline (or maxFrames, or the recording's end) and
// the run ends once VIO has answered every camera frame.
func runLive(l *liveSetup, dur time.Duration, maxFrames int, traced bool) *liveRun {
	run := &liveRun{}
	timer := time.NewTimer(poseWait)
	defer timer.Stop()

	var vioSeen atomic.Int64
	var cur playCursor
	vioDone := make(chan struct{})
	var slowSub *runtime.Subscription
	if traced {
		slowSub = l.slow.Subscribe(1024)
		go func() {
			defer close(vioDone)
			for range slowSub.C {
				vioSeen.Add(1)
				run.vioMs = append(run.vioMs, float64(nanos())) // arrival; turned into a duration below
			}
		}()
	}

	frameDur := 1 / displayHz
	audioNext := 0.0
	var (
		t0         time.Time
		procBefore procSnap
		hitsBefore recycleSnap
	)
	deadline := time.Time{}
	lastT := l.ds.IMU[len(l.ds.IMU)-1].T
	for k := 1; ; k++ {
		t := float64(k) * frameDur
		if t > lastT || (maxFrames > 0 && k > maxFrames) {
			break
		}
		if k == liveWarmFrames+1 {
			hitsBefore = recycleSnapshot()
			procBefore = readProc()
			t0 = time.Now()
			deadline = t0.Add(dur)
		}
		// however short the window, frame 60 is displayed, so every run has
		// a checksummed frame to verify
		if k > checksumEvery && dur > 0 && !time.Now().Before(deadline) {
			break
		}
		var sp frameSpans
		sp.frame = k
		sp.start = nanos()
		renderPose, err := l.pumpAndWait(t-frameDur/2, &cur, timer)
		sp.posed = nanos()
		var out *imgproc.RGB
		if err == nil {
			img := l.renderer.RenderFrame(l.scene, renderPose, t)
			sp.rendered = nanos()
			var fresh mathx.Pose
			fresh, err = l.pumpAndWait(t, &cur, timer)
			sp.fresh = nanos()
			if err == nil {
				out = l.rp.Reproject(img, renderPose, fresh)
			}
			sp.warped = nanos()
		}
		if err != nil {
			if k > liveWarmFrames {
				run.frameFails++
			}
			run.checks = append(run.checks, fmt.Sprintf("frame %d: %v", k, err))
			break
		}
		for audioNext <= t {
			a0 := nanos()
			l.audio.ProcessBlock(audioNext)
			audioNext += 1 / audioHz
			if k > liveWarmFrames {
				run.audioMs = append(run.audioMs, float64(nanos()-a0)/1e6)
			}
		}
		sp.audioD = nanos()
		if k%checksumEvery == 0 {
			run.checksums = append(run.checksums, checksum(out))
		}
		imgproc.PutRGB(out)
		if traced {
			if backlog := cur.cams - int(vioSeen.Load()); backlog > run.vioBacklogMax {
				run.vioBacklogMax = backlog
			}
		}
		sp.end = nanos()
		if k <= liveWarmFrames {
			continue
		}
		run.frames++
		run.frameMs = append(run.frameMs, float64(sp.end-sp.start)/1e6)
		run.mtpMs = append(run.mtpMs, float64(sp.warped-sp.rendered)/1e6)
		run.waitMs = append(run.waitMs, float64(sp.posed-sp.start+sp.fresh-sp.rendered)/1e6)
		run.renderMs = append(run.renderMs, float64(sp.rendered-sp.posed)/1e6)
		run.warpMs = append(run.warpMs, float64(sp.warped-sp.fresh)/1e6)
		if traced {
			run.spans = append(run.spans, sp)
		}
	}
	camIdx := cur.cams
	run.camPublished = camIdx

	// the run is over when VIO has published an estimate for every camera
	// frame it was given
	vioDeadline := time.Now().Add(vioDrainWait)
	for int(l.slow.Seq()) < camIdx && time.Now().Before(vioDeadline) {
		time.Sleep(time.Millisecond)
	}
	if !t0.IsZero() {
		run.elapsedSec = time.Since(t0).Seconds()
		run.proc = procBefore.until(readProc())
		run.recycleHit = hitsBefore.ratioUntil(recycleSnapshot())
	}
	run.vioEstimates = int(l.slow.Seq())
	if run.vioEstimates != camIdx {
		run.checks = append(run.checks, fmt.Sprintf("VIO published %d estimates for %d camera frames", run.vioEstimates, camIdx))
	}
	if traced {
		slowSub.Cancel()
		<-vioDone
		// estimates arrive in camera order: pair them up with the publishes
		arrivals := run.vioMs
		run.vioMs = nil
		for i, at := range arrivals {
			if i < len(cur.camAt) {
				run.vioMs = append(run.vioMs, (at-float64(cur.camAt[i]))/1e6)
			}
		}
	}
	return run
}

// checksum fingerprints a displayed frame's exact float bits.
func checksum(im *imgproc.RGB) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range im.Pix {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// liveGolden is the checked-in expectation for the default seed.
type liveGolden struct {
	Seed      int64    `json:"seed"`
	GOARCH    string   `json:"goarch"`
	Width     int      `json:"width"`
	Height    int      `json:"height"`
	Every     int      `json:"every"`
	Checksums []string `json:"checksums"`
}

const goldenFile = "live_golden.json"

// benchDir finds the benchmark's own directory from wherever the binary
// was started: the repo root (go run ./benchmark) or the directory itself
// (go test).
func benchDir() string {
	for _, d := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(d, "testdata", goldenFile)); err == nil {
			return d
		}
	}
	return "benchmark"
}

// checkGolden compares a run's checksums with the checked-in ones where
// they apply: same seed, same architecture (float rounding is only
// reproducible per architecture). Runs longer than the golden check the
// prefix the golden covers.
func checkGolden(seed int64, goarch string, got []string) error {
	b, err := os.ReadFile(filepath.Join(benchDir(), "testdata", goldenFile))
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	var g liveGolden
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if g.Seed != seed || g.GOARCH != goarch {
		return nil
	}
	if g.Width != liveW || g.Height != liveH || g.Every != checksumEvery {
		return fmt.Errorf("golden was written for %dx%d every %d frames", g.Width, g.Height, g.Every)
	}
	for i, c := range got {
		if i < len(g.Checksums) && c != g.Checksums[i] {
			return fmt.Errorf("displayed frame %d checksum %s, golden %s", (i+1)*checksumEvery, c, g.Checksums[i])
		}
	}
	return nil
}

// goldenFrames is how far into the recording the golden reaches: twenty
// virtual seconds, more than any window displays on this class of host.
const goldenFrames = 2400

// writeGolden regenerates the checked-in checksums for a seed.
func writeGolden(seed int64) error {
	h := readHost()
	l, err := setUpLive(seed, goldenFrames/displayHz+0.1, sessionsFor(h), false)
	if err != nil {
		return err
	}
	run := runLive(l, 0, goldenFrames, false)
	if err := l.tearDown(); err != nil {
		return err
	}
	if len(run.checks) > 0 {
		return fmt.Errorf("golden run failed: %v", run.checks)
	}
	g := liveGolden{Seed: seed, GOARCH: h.GOARCH, Width: liveW, Height: liveH, Every: checksumEvery, Checksums: run.checksums}
	return writeJSON(filepath.Join(benchDir(), "testdata", goldenFile), g)
}

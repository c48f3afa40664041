// Package parallel provides the deterministic data-parallel substrate for
// the visual/quality/audio hot paths: a GOMAXPROCS-aware worker pool with
// fixed-size tiling and ordered reduction, so a kernel's output is bitwise
// identical for every worker count.
//
// Determinism contract (see DESIGN.md §8): the tiling of an index space
// [0, n) into tiles depends only on n and the tile size — never on the
// number of workers — and every reduction folds tile partials in ascending
// tile order. Workers only change *which goroutine* computes a tile, not
// what is computed or in what order results combine, so Workers=1 (the
// serial path) and Workers=N produce bit-identical outputs. Kernels whose
// tiles write disjoint output regions (per-scanline warps, convolutions)
// are trivially deterministic; kernels that reduce (SSIM/FLIP means,
// hologram spot sums) are deterministic because of the ordered fold.
//
// Allocation contract (DESIGN.md §10): dispatching a kernel allocates
// nothing in steady state. The pool keeps its worker goroutines alive
// across calls (started lazily on the first multi-tile call) and hands
// them work through pre-allocated channel tokens; per-call state lives in
// pool fields rather than captured closures, and the ordered-sum partial
// buffers are reused between calls. Callers that want zero-alloc dispatch
// must pass persistent func values (created once, parameters passed
// through struct fields), since a closure literal at the call site is
// itself a per-call heap allocation.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"illixr/internal/telemetry"
)

// Pool schedules tiled kernels over a fixed number of workers. The zero
// value and the nil pool are both valid and run every kernel serially.
// A Pool serializes its own kernel calls (one kernel runs at a time);
// distinct Pools are independent. A pool that has dispatched parks
// workers-1 goroutines until Close.
type Pool struct {
	workers int

	// instruments (nil when uninstrumented — all no-ops)
	callsC   *telemetry.Counter
	tilesC   *telemetry.Counter
	kernelH  func(kernel string) *telemetry.Histogram
	idleH    *telemetry.Histogram
	reg      *telemetry.Registry
	kernelMu sync.Mutex
	kernels  map[string]*telemetry.Histogram

	// tile-time collection for the work-span model of `illixr-bench -exp
	// parallel` (off by default; adds a clock read per tile when on).
	// One inner slice per pool call, in call order.
	collectTiles atomic.Bool
	tileMu       sync.Mutex
	tileCalls    [][]float64

	// persistent helper goroutines: workers-1 helpers park on start and
	// hand back completion through done; the calling goroutine computes
	// tiles too. Channel tokens carry no data, so a dispatch allocates
	// nothing once the helpers are running. The channels are sized for
	// maxWorkers up front so SetWorkers can grow the pool by spawning
	// more helpers without reallocating them; spawned tracks how many
	// helper goroutines exist (guarded by runMu).
	startOnce sync.Once
	start     chan struct{}
	done      chan struct{}
	spawned   int
	helpers   sync.WaitGroup
	closed    bool // guarded by runMu

	// per-call state, valid between the start tokens and the last done
	// token of one dispatch; guarded by runMu.
	runMu      sync.Mutex
	curFn      func(lo, hi int)
	curSum     func(lo, hi int) float64
	curSum2    func(lo, hi int) (re, im float64)
	partials   []float64 // reused ordered-sum partial buffer
	curN       int
	curTile    int
	curTiles   int
	curCollect bool
	curInstr   bool
	curTileMs  []float64
	next       atomic.Int64
	busyNs     atomic.Int64
}

// maxWorkers caps the pool size: helper goroutines stay parked until
// Close, so the cap bounds how many a resize-happy controller can hold
// (each parked helper costs one idle goroutine).
const maxWorkers = 256

// New returns a pool with the given worker count. workers <= 0 selects
// GOMAXPROCS; workers == 1 is the serial path.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxWorkers {
		workers = maxWorkers
	}
	return &Pool{workers: workers}
}

// Workers reports the configured worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	p.runMu.Lock()
	w := p.workers
	p.runMu.Unlock()
	if w < 1 {
		return 1
	}
	return w
}

// SetWorkers resizes the pool to n workers, clamped to [1, 256]. The
// resize serializes against in-flight kernels (it takes the dispatch
// lock), so a kernel never observes the count changing mid-call, and
// tile boundaries depend only on n and tile size — never the worker
// count — so kernel output stays bitwise identical across resizes.
// Growing spawns additional parked helper goroutines; shrinking parks
// the surplus (goroutines are reused, and exit only at Close). This is
// the QoS controller's reallocation hook: call it at control-epoch
// boundaries.
func (p *Pool) SetWorkers(n int) {
	if p == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	p.runMu.Lock()
	p.workers = n
	p.runMu.Unlock()
}

// Instrument attaches the telemetry registry: the pool reports
// illixr_parallel_calls_total, illixr_parallel_tiles_total,
// illixr_parallel_idle_ms (per-call aggregate worker idle time) and a
// per-kernel latency histogram illixr_parallel_<kernel>_ms.
func (p *Pool) Instrument(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.reg = reg
	p.callsC = reg.Counter(telemetry.MetricName("parallel", "calls_total"))
	p.tilesC = reg.Counter(telemetry.MetricName("parallel", "tiles_total"))
	p.idleH = reg.Histogram(telemetry.MetricName("parallel", "idle_ms"))
	p.kernels = map[string]*telemetry.Histogram{}
}

func (p *Pool) kernelHist(kernel string) *telemetry.Histogram {
	if p == nil || p.reg == nil {
		return nil
	}
	p.kernelMu.Lock()
	defer p.kernelMu.Unlock()
	h := p.kernels[kernel]
	if h == nil {
		h = p.reg.Histogram(telemetry.MetricName("parallel", kernel+"_ms"))
		p.kernels[kernel] = h
	}
	return h
}

// CollectTiles toggles per-tile duration recording (used by the parallel
// bench to fit the work-span model). Drain with DrainTileCalls.
func (p *Pool) CollectTiles(on bool) {
	if p != nil {
		p.collectTiles.Store(on)
	}
}

// DrainTileCalls returns and clears the recorded per-tile durations
// (milliseconds): one slice per pool call, tiles in tile order within each
// call.
func (p *Pool) DrainTileCalls() [][]float64 {
	if p == nil {
		return nil
	}
	p.tileMu.Lock()
	defer p.tileMu.Unlock()
	out := p.tileCalls
	p.tileCalls = nil
	return out
}

// Tiles returns the number of tiles a range of n items splits into with
// the given tile size (at least 1 when n > 0).
func Tiles(n, tile int) int {
	if n <= 0 {
		return 0
	}
	if tile <= 0 {
		tile = n
	}
	return (n + tile - 1) / tile
}

// ensureWorkers lazily spawns helper goroutines up to the current
// workers-1. Called with runMu held (from dispatch), so spawned needs
// no extra guard; the channels are sized once for the maxWorkers cap so
// later growth never reallocates them.
func (p *Pool) ensureWorkers() {
	p.startOnce.Do(func() {
		p.start = make(chan struct{}, maxWorkers)
		p.done = make(chan struct{}, maxWorkers)
	})
	for p.spawned < p.workers-1 {
		p.helpers.Add(1)
		go p.helperLoop()
		p.spawned++
	}
}

// Close gives the helper goroutines back and returns once they have
// exited. It takes the dispatch lock, so it waits out a kernel in flight
// and never strands one. A closed pool is still usable: it behaves as the
// nil pool — every kernel runs on the calling goroutine, over the same
// tiles in the same order, so outputs stay bit-identical. Idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.start != nil {
		close(p.start)
	}
	p.helpers.Wait()
}

func (p *Pool) helperLoop() {
	defer p.helpers.Done()
	for range p.start {
		var t0 time.Time
		if p.curInstr {
			t0 = time.Now()
		}
		p.runTiles()
		if p.curInstr {
			p.busyNs.Add(int64(time.Since(t0)))
		}
		p.done <- struct{}{}
	}
}

// runTiles pulls tiles off the shared cursor until the call is drained.
func (p *Pool) runTiles() {
	for {
		ti := int(p.next.Add(1)) - 1
		if ti >= p.curTiles {
			return
		}
		p.runTile(ti)
	}
}

func (p *Pool) runTile(ti int) {
	lo := ti * p.curTile
	hi := lo + p.curTile
	if hi > p.curN {
		hi = p.curN
	}
	var t0 time.Time
	if p.curCollect {
		t0 = time.Now()
	}
	switch {
	case p.curFn != nil:
		p.curFn(lo, hi)
	case p.curSum != nil:
		p.partials[ti] = p.curSum(lo, hi)
	case p.curSum2 != nil:
		re, im := p.curSum2(lo, hi)
		p.partials[2*ti] = re
		p.partials[2*ti+1] = im
	}
	if p.curCollect {
		p.curTileMs[ti] = float64(time.Since(t0)) / 1e6
	}
}

// dispatch runs the kernel configured in the cur* fields. The caller must
// hold runMu and have set exactly one of curFn/curSum/curSum2.
func (p *Pool) dispatch(kernel string, n, tile, tiles int) {
	p.curN, p.curTile, p.curTiles = n, tile, tiles
	p.curCollect = p.collectTiles.Load()
	if p.curCollect {
		p.curTileMs = make([]float64, tiles)
	}
	instr := p.reg != nil
	p.curInstr = instr
	var startT time.Time
	if instr {
		startT = time.Now()
	}

	helpers := p.workers
	if helpers > tiles {
		helpers = tiles
	}
	if p.closed {
		helpers = 1
	}
	helpers-- // the calling goroutine participates
	p.next.Store(0)
	if helpers > 0 {
		p.ensureWorkers()
		p.busyNs.Store(0)
		for i := 0; i < helpers; i++ {
			p.start <- struct{}{}
		}
	}
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	p.runTiles()
	if instr {
		p.busyNs.Add(int64(time.Since(t0)))
	}
	for i := 0; i < helpers; i++ {
		<-p.done
	}

	if instr {
		if helpers > 0 {
			// aggregate idle: worker-seconds the pool held but did not
			// compute in (scheduling gaps + tail imbalance)
			elapsed := time.Since(startT)
			idle := float64(int64(helpers+1)*int64(elapsed)-p.busyNs.Load()) / 1e6
			if idle > 0 {
				p.idleH.Observe(idle)
			}
		}
		p.callsC.Inc()
		p.tilesC.Add(tiles)
		p.kernelHist(kernel).Observe(float64(time.Since(startT)) / 1e6)
	}
	if p.curCollect {
		p.tileMu.Lock()
		p.tileCalls = append(p.tileCalls, p.curTileMs)
		p.tileMu.Unlock()
		p.curTileMs = nil
	}
}

// serialTiles is the nil-pool path: the same tiles in ascending order on
// the calling goroutine, with no state at all.
func serialTiles(n, tile, tiles int, fn func(lo, hi int)) {
	for ti := 0; ti < tiles; ti++ {
		lo := ti * tile
		hi := lo + tile
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// ForTiles splits [0, n) into fixed tiles of the given size and invokes
// fn(lo, hi) for each tile, distributing tiles over the pool's workers.
// Tile boundaries depend only on n and tile, so kernels whose tiles write
// disjoint outputs are bitwise deterministic for any worker count. fn must
// not write outside its [lo, hi) output range.
func (p *Pool) ForTiles(kernel string, n, tile int, fn func(lo, hi int)) {
	tiles := Tiles(n, tile)
	if tiles == 0 {
		return
	}
	if tile <= 0 {
		tile = n
	}
	if p == nil {
		serialTiles(n, tile, tiles, fn)
		return
	}
	p.runMu.Lock()
	p.curFn = fn
	p.dispatch(kernel, n, tile, tiles)
	p.curFn = nil
	p.runMu.Unlock()
}

// grabPartials returns the reused partial buffer sized to n (allocation
// only when the high-water mark grows). Caller must hold runMu.
func (p *Pool) grabPartials(n int) []float64 {
	if cap(p.partials) < n {
		p.partials = make([]float64, n)
	}
	p.partials = p.partials[:n]
	return p.partials
}

// foldOrdered sums tile partials in ascending tile order — the same fold
// the serial path performs, so the result is bitwise deterministic.
func foldOrdered(partials []float64) float64 {
	acc := partials[0]
	for i := 1; i < len(partials); i++ {
		acc += partials[i]
	}
	return acc
}

// SumTiles maps each tile of [0, n) to a float64 partial and folds the
// partials in ascending tile order. It is the allocation-free ordered-sum
// reduction used by the per-frame kernels: the partial buffer is pool-
// owned and reused, so steady-state calls allocate nothing (provided fn is
// a persistent func value).
func (p *Pool) SumTiles(kernel string, n, tile int, fn func(lo, hi int) float64) float64 {
	tiles := Tiles(n, tile)
	if tiles == 0 {
		return 0
	}
	if tile <= 0 {
		tile = n
	}
	if p == nil {
		// the first partial is assigned, not added to zero, exactly as
		// foldOrdered starts from partials[0] (0 + -0 would lose the sign)
		var acc float64
		serialTiles(n, tile, tiles, func(lo, hi int) {
			if v := fn(lo, hi); lo == 0 {
				acc = v
			} else {
				acc += v
			}
		})
		return acc
	}
	p.runMu.Lock()
	p.grabPartials(tiles)
	p.curSum = fn
	p.dispatch(kernel, n, tile, tiles)
	p.curSum = nil
	acc := foldOrdered(p.partials)
	p.runMu.Unlock()
	return acc
}

// SumTiles2 is SumTiles for paired sums (e.g. the real and imaginary parts
// of a complex accumulation). Both components fold in ascending tile
// order, independently, exactly as the serial loop would.
func (p *Pool) SumTiles2(kernel string, n, tile int, fn func(lo, hi int) (a, b float64)) (a, b float64) {
	tiles := Tiles(n, tile)
	if tiles == 0 {
		return 0, 0
	}
	if tile <= 0 {
		tile = n
	}
	if p == nil {
		var accA, accB float64
		serialTiles(n, tile, tiles, func(lo, hi int) {
			if va, vb := fn(lo, hi); lo == 0 {
				accA, accB = va, vb
			} else {
				accA += va
				accB += vb
			}
		})
		return accA, accB
	}
	p.runMu.Lock()
	p.grabPartials(2 * tiles)
	p.curSum2 = fn
	p.dispatch(kernel, n, tile, tiles)
	p.curSum2 = nil
	accA := p.partials[0]
	accB := p.partials[1]
	for i := 1; i < tiles; i++ {
		accA += p.partials[2*i]
		accB += p.partials[2*i+1]
	}
	p.runMu.Unlock()
	return accA, accB
}

// Package qos is the adaptive quality-of-service scheduler: a
// deadline-aware controller that, each control epoch, reads per-stage
// latency and deadline-miss signals and decides (a) how the shared
// parallel-pool workers are split between kernels, (b) where each
// kernel's quality knobs sit (hologram iterations, pyramid levels, SSIM
// stride, per-stage frequency divisors), and (c) when same-kernel work
// from different sessions is batched to amortize fixed dispatch costs
// (DESIGN.md §14).
//
// Determinism contract: every decision is a pure function of the
// integer epoch statistics fed to Step and the seeded controller state.
// All arithmetic is fixed-point (Q10 pressures, microsecond latencies);
// no wall clock, no floats in the decision path, no dependence on how
// many OS threads back the pool executing the kernels. Same seed and
// same signal trace ⇒ byte-identical decision log at any worker count —
// which is what lets the golden-vector and fingerprint layers survive
// underneath an adaptive scheduler.
//
// Knob ownership rules (DESIGN.md §14): the controller OWNS the knobs
// listed in its KernelSpecs between Step calls — kernels read knob
// values at dispatch time and must not write them; everything not
// listed in a spec stays owned by its kernel. Worker counts move only
// through Decision.Workers (applied via parallel.Pool.SetWorkers at
// epoch boundaries, never mid-kernel).
package qos

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"illixr/internal/parallel"
	"illixr/internal/telemetry"
)

// unit is the fixed-point scale of pressures and rates (Q10): a
// pressure of Unit means the kernel's windowed p99 exactly consumes its
// deadline budget.
const unit = 1024

// KnobSpec declares one quality knob the controller owns. Full is the
// full-quality value, Floor the most-degraded one; the degrade
// direction is the sign of Floor-Full (pyramid levels degrade downward,
// an SSIM stride degrades upward). Step is the per-move magnitude.
type KnobSpec struct {
	Name  string
	Full  int
	Floor int
	Step  int
}

func (k KnobSpec) step() int {
	if k.Step <= 0 {
		return 1
	}
	return k.Step
}

// dir returns the degrade direction: +1 when degrading raises the value
// (stride, frequency divisor), -1 when it lowers it (levels,
// iterations), 0 for a fixed knob.
func (k KnobSpec) dir() int {
	switch {
	case k.Floor > k.Full:
		return 1
	case k.Floor < k.Full:
		return -1
	default:
		return 0
	}
}

// clamp bounds v to the knob's [Full,Floor] interval regardless of
// direction.
func (k KnobSpec) clamp(v int) int {
	lo, hi := k.Full, k.Floor
	if lo > hi {
		lo, hi = hi, lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// KernelSpec declares one kernel under the controller's management.
type KernelSpec struct {
	// ID names the kernel ("reprojection", "hologram", ...).
	ID string
	// Weight is the relative worker-allocation weight (0 = 1).
	Weight int
	// MinWorkers floors the kernel's allocation (0 = 1).
	MinWorkers int
	// Knobs in degrade-priority order: under sustained pressure the
	// first knob not at its floor degrades first; restores walk the
	// same list backwards (last-degraded restores first).
	Knobs []KnobSpec
}

func (s KernelSpec) weight() int {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}

func (s KernelSpec) minWorkers() int {
	if s.MinWorkers <= 0 {
		return 1
	}
	return s.MinWorkers
}

// Config tunes a Controller. The zero value of optional fields selects
// the documented defaults.
type Config struct {
	// Seed drives the deterministic restore-phase stagger (and nothing
	// else): kernels restore quality on offset epochs so a fleet of
	// kernels does not re-upgrade in lockstep and oscillate together.
	Seed int64
	// TotalWorkers is the shared pool size split between kernels.
	// Required (>= number of kernels after MinWorkers flooring).
	TotalWorkers int
	// BudgetUs is the per-stage deadline budget in microseconds (the
	// vsync interval for display-rate stages). Required.
	BudgetUs int64
	// DampEpochs is the hysteresis window: a pressure signal must
	// persist this many consecutive epochs before a knob or worker
	// moves, and a knob that moved is frozen for this many epochs
	// (0 = 3).
	DampEpochs int
	// HighWater and LowWater are the Q10 pressure thresholds for
	// degrading and restoring quality (0 = Unit and 7*Unit/10).
	HighWater, LowWater int
	// MaxWorkerMoves bounds worker transfers per epoch (0 = 1).
	MaxWorkerMoves int
	// LogCap bounds the retained decision log (0 = 4096 records; the
	// running fingerprint always covers every record ever appended).
	LogCap int
	// Kernels is the managed set, in priority order. Required.
	Kernels []KernelSpec
}

// KernelStats is one kernel's signal for one control epoch: completion
// count, deadline misses, and the windowed p99 latency in microseconds.
// All integers — the controller never sees a float.
type KernelStats struct {
	Kernel string
	Frames int
	Misses int
	P99Us  int64
}

// Decision is the controller's output for one epoch: the worker split
// and every knob value (keyed "<kernel>.<knob>"). Maps are fresh copies
// the caller may retain.
type Decision struct {
	Epoch   int
	Workers map[string]int
	Knobs   map[string]int
	// Moved and Stepped report whether this epoch changed the worker
	// split or any knob (telemetry and log compaction).
	Moved   bool
	Stepped bool
}

// kernelState is the controller's per-kernel mutable state.
type kernelState struct {
	spec    KernelSpec
	workers int
	knobs   []int // parallel to spec.Knobs

	pressureQ  int // last epoch's Q10 pressure
	hotStreak  int
	coldStreak int
	cooldown   int // epoch until which knob moves are frozen
	phase      int // seeded restore stagger in [0, damp)

	wantDir    int // sign of (target workers - current)
	wantStreak int
}

// Controller is the adaptive QoS scheduler. A mutex serializes Step
// against the accessors (Workers/Knob/QoSDoc/Log*), so a live control
// loop and a debug endpoint can share one controller; determinism is
// unaffected because decisions depend only on the Step inputs.
// Instrument is optional.
type Controller struct {
	mu      sync.Mutex
	cfg     Config
	kernels []*kernelState
	byID    map[string]*kernelState
	epoch   int

	log     []string
	logCap  int
	fprint  uint64
	dropped int

	violations int

	// instruments (nil-safe)
	epochsC   *telemetry.Counter
	missC     *telemetry.Counter
	movesC    *telemetry.Counter
	stepsC    *telemetry.Counter
	workersG  map[string]*telemetry.Gauge
	pressureG map[string]*telemetry.Gauge
	knobG     map[string]*telemetry.Gauge
}

// NewController validates cfg and returns a controller with every knob
// at full quality and workers apportioned by weight.
func NewController(cfg Config) (*Controller, error) {
	if len(cfg.Kernels) == 0 {
		return nil, fmt.Errorf("qos: no kernels")
	}
	if cfg.BudgetUs <= 0 {
		return nil, fmt.Errorf("qos: BudgetUs must be positive")
	}
	if cfg.DampEpochs <= 0 {
		cfg.DampEpochs = 3
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = unit
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = 7 * unit / 10
	}
	if cfg.MaxWorkerMoves <= 0 {
		cfg.MaxWorkerMoves = 1
	}
	if cfg.LogCap <= 0 {
		cfg.LogCap = 4096
	}
	minSum := 0
	for _, k := range cfg.Kernels {
		minSum += k.minWorkers()
	}
	if cfg.TotalWorkers < minSum {
		return nil, fmt.Errorf("qos: TotalWorkers %d below the %d MinWorkers floor", cfg.TotalWorkers, minSum)
	}
	c := &Controller{cfg: cfg, byID: map[string]*kernelState{}, logCap: cfg.LogCap, fprint: fprintSeed}
	seed := uint64(cfg.Seed)
	for _, spec := range cfg.Kernels {
		if spec.ID == "" {
			return nil, fmt.Errorf("qos: kernel with empty ID")
		}
		if _, dup := c.byID[spec.ID]; dup {
			return nil, fmt.Errorf("qos: duplicate kernel %q", spec.ID)
		}
		ks := &kernelState{spec: spec, knobs: make([]int, len(spec.Knobs))}
		for i, kn := range spec.Knobs {
			ks.knobs[i] = kn.Full
		}
		// seeded restore stagger: deterministic per (seed, kernel)
		h := seed ^ fnv64(spec.ID)
		ks.phase = int(splitmix64(&h) % uint64(cfg.DampEpochs))
		c.kernels = append(c.kernels, ks)
		c.byID[spec.ID] = ks
	}
	// initial apportionment: weights only (no pressure yet)
	demands := make([]int64, len(c.kernels))
	for i, ks := range c.kernels {
		demands[i] = int64(ks.spec.weight()) * unit
	}
	for i, w := range apportion(demands, c.mins(), cfg.TotalWorkers) {
		c.kernels[i].workers = w
	}
	return c, nil
}

func (c *Controller) mins() []int {
	m := make([]int, len(c.kernels))
	for i, ks := range c.kernels {
		m[i] = ks.spec.minWorkers()
	}
	return m
}

// Instrument attaches the registry: epochs/miss/move/step counters plus
// per-kernel worker, pressure, and knob gauges, all under illixr_qos_*.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n := func(name string) string { return telemetry.MetricName("qos", name) }
	c.epochsC = reg.Counter(n("epochs_total"))
	c.missC = reg.Counter(n("deadline_miss_total"))
	c.movesC = reg.Counter(n("worker_moves_total"))
	c.stepsC = reg.Counter(n("knob_steps_total"))
	c.workersG = map[string]*telemetry.Gauge{}
	c.pressureG = map[string]*telemetry.Gauge{}
	c.knobG = map[string]*telemetry.Gauge{}
	for _, ks := range c.kernels {
		id := ks.spec.ID
		c.workersG[id] = reg.Gauge(n("workers_" + id))
		c.pressureG[id] = reg.Gauge(n("pressure_" + id))
		c.workersG[id].Set(float64(ks.workers))
		for i, kn := range ks.spec.Knobs {
			g := reg.Gauge(n("knob_" + id + "_" + kn.Name))
			c.knobG[id+"."+kn.Name] = g
			g.Set(float64(ks.knobs[i]))
		}
	}
}

// Workers returns the kernel's current allocation (0 for unknown).
func (c *Controller) Workers(kernel string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ks := c.byID[kernel]; ks != nil {
		return ks.workers
	}
	return 0
}

// Knob returns the kernel's current value for the named knob (and
// whether it exists).
func (c *Controller) Knob(kernel, name string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ks := c.byID[kernel]
	if ks == nil {
		return 0, false
	}
	for i, kn := range ks.spec.Knobs {
		if kn.Name == name {
			return ks.knobs[i], true
		}
	}
	return 0, false
}

// Epoch returns the number of completed Step calls.
func (c *Controller) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// ApplyWorkers pushes the current split into the per-kernel pools
// (kernels without a pool, and pools without a kernel, are ignored).
// Call at epoch boundaries only — Pool.SetWorkers serializes against
// in-flight kernels, so this never resizes a kernel mid-call.
func (c *Controller) ApplyWorkers(pools map[string]*parallel.Pool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, p := range pools {
		if ks := c.byID[id]; ks != nil {
			p.SetWorkers(ks.workers)
		}
	}
}

// Violations counts internal invariant breaches (knob outside bounds,
// worker split not summing to TotalWorkers). Always 0 in a correct
// build; the bench and the tests assert it.
func (c *Controller) Violations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations
}

// Step closes one control epoch: it folds the supplied per-kernel stats
// into pressures, moves at most MaxWorkerMoves workers toward the
// demand-apportioned split, and degrades or restores at most one knob
// per kernel — every move gated by the DampEpochs hysteresis window.
// Kernels absent from stats contribute a zero signal (cold).
func (c *Controller) Step(stats []KernelStats) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	byK := map[string]KernelStats{}
	for _, s := range stats {
		byK[s.Kernel] = s
	}

	// 1. pressures (Q10): windowed p99 over budget, plus the miss rate
	// so a kernel that is both slow and missing pushes harder.
	totalMisses := 0
	for _, ks := range c.kernels {
		s := byK[ks.spec.ID]
		p := int(s.P99Us * unit / c.cfg.BudgetUs)
		if s.Frames > 0 {
			p += s.Misses * unit / s.Frames
		}
		ks.pressureQ = p
		totalMisses += s.Misses
	}

	// 2. worker reallocation toward the demand apportionment, bounded
	// and hysteresis-damped.
	moved := c.stepWorkers()

	// 3. quality knobs, per kernel, bounded to one step inside a frozen
	// cooldown window.
	stepped := false
	for _, ks := range c.kernels {
		if c.stepKnobs(ks) {
			stepped = true
		}
	}

	c.epoch++
	c.audit()

	// 4. telemetry + decision log
	c.epochsC.Inc()
	c.missC.Add(totalMisses)
	if moved {
		c.movesC.Inc()
	}
	if stepped {
		c.stepsC.Inc()
	}
	for _, ks := range c.kernels {
		id := ks.spec.ID
		if c.workersG != nil {
			c.workersG[id].Set(float64(ks.workers))
			c.pressureG[id].Set(float64(ks.pressureQ) / unit)
			for i, kn := range ks.spec.Knobs {
				c.knobG[id+"."+kn.Name].Set(float64(ks.knobs[i]))
			}
		}
	}

	d := c.decision(moved, stepped)
	c.appendLog(d)
	return d
}

// stepWorkers computes the demand-apportioned target split and moves at
// most MaxWorkerMoves workers toward it. A transfer happens only when
// both the donor's surplus and the recipient's deficit have persisted
// for DampEpochs consecutive epochs.
func (c *Controller) stepWorkers() bool {
	demands := make([]int64, len(c.kernels))
	for i, ks := range c.kernels {
		p := int64(ks.pressureQ)
		// clamp so one exploding kernel cannot starve the rest to their
		// floors in a single reallocation burst, and an idle kernel
		// still weighs something
		if p < unit/4 {
			p = unit / 4
		}
		if p > 4*unit {
			p = 4 * unit
		}
		demands[i] = int64(ks.spec.weight()) * p
	}
	target := apportion(demands, c.mins(), c.cfg.TotalWorkers)

	// hysteresis: track how long each kernel has wanted to move in the
	// same direction
	for i, ks := range c.kernels {
		dir := sign(target[i] - ks.workers)
		if dir != 0 && dir == ks.wantDir {
			ks.wantStreak++
		} else {
			ks.wantDir, ks.wantStreak = dir, b2i(dir != 0)
		}
	}

	moved := false
	for n := 0; n < c.cfg.MaxWorkerMoves; n++ {
		// pick the most-starved eligible recipient and the most-padded
		// eligible donor (ties break by spec order — deterministic)
		ri, di := -1, -1
		var rDef, dSur int
		for i, ks := range c.kernels {
			if ks.wantDir > 0 && ks.wantStreak >= c.cfg.DampEpochs {
				if def := target[i] - ks.workers; def > rDef {
					rDef, ri = def, i
				}
			}
			if ks.wantDir < 0 && ks.wantStreak >= c.cfg.DampEpochs &&
				ks.workers > ks.spec.minWorkers() {
				if sur := ks.workers - target[i]; sur > dSur {
					dSur, di = sur, i
				}
			}
		}
		if ri < 0 || di < 0 || ri == di {
			break
		}
		c.kernels[di].workers--
		c.kernels[ri].workers++
		moved = true
	}
	return moved
}

// stepKnobs degrades or restores at most one knob of one kernel, gated
// by the hot/cold streaks, the cooldown freeze, and (for restores) the
// seeded phase stagger.
func (c *Controller) stepKnobs(ks *kernelState) bool {
	switch {
	case ks.pressureQ > c.cfg.HighWater:
		ks.hotStreak++
		ks.coldStreak = 0
	case ks.pressureQ < c.cfg.LowWater:
		ks.coldStreak++
		ks.hotStreak = 0
	default:
		ks.hotStreak, ks.coldStreak = 0, 0
	}
	if c.epoch < ks.cooldown {
		return false
	}
	damp := c.cfg.DampEpochs
	if ks.hotStreak >= damp {
		// degrade the first knob with remaining range
		for i, kn := range ks.spec.Knobs {
			if ks.knobs[i] != kn.Floor {
				ks.knobs[i] = kn.clamp(ks.knobs[i] + kn.dir()*kn.step())
				ks.cooldown = c.epoch + damp
				ks.hotStreak = 0
				return true
			}
		}
	}
	if ks.coldStreak >= damp+ks.phase {
		// restore the most recently degraded knob (reverse priority)
		for i := len(ks.spec.Knobs) - 1; i >= 0; i-- {
			kn := ks.spec.Knobs[i]
			if ks.knobs[i] != kn.Full {
				ks.knobs[i] = kn.clamp(ks.knobs[i] - kn.dir()*kn.step())
				ks.cooldown = c.epoch + damp
				ks.coldStreak = 0
				return true
			}
		}
	}
	return false
}

// audit asserts the controller invariants; breaches count into
// Violations instead of panicking (the bench gates on the count).
func (c *Controller) audit() {
	sum := 0
	for _, ks := range c.kernels {
		sum += ks.workers
		if ks.workers < ks.spec.minWorkers() {
			c.violations++
		}
		for i, kn := range ks.spec.Knobs {
			if kn.clamp(ks.knobs[i]) != ks.knobs[i] {
				c.violations++
			}
		}
	}
	if sum != c.cfg.TotalWorkers {
		c.violations++
	}
}

func (c *Controller) decision(moved, stepped bool) Decision {
	d := Decision{Epoch: c.epoch, Workers: map[string]int{}, Knobs: map[string]int{},
		Moved: moved, Stepped: stepped}
	for _, ks := range c.kernels {
		d.Workers[ks.spec.ID] = ks.workers
		for i, kn := range ks.spec.Knobs {
			d.Knobs[ks.spec.ID+"."+kn.Name] = ks.knobs[i]
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Decision log: canonical integer encoding, byte-identical across runs.

const fprintSeed = 0x9e3779b97f4a7c15

// appendLog records the epoch in canonical form: kernels in spec order,
// knobs in spec order, pressures in Q10 — integers only.
func (c *Controller) appendLog(d Decision) {
	var b strings.Builder
	fmt.Fprintf(&b, "e=%d", d.Epoch)
	for _, ks := range c.kernels {
		fmt.Fprintf(&b, " %s w=%d p=%d", ks.spec.ID, ks.workers, ks.pressureQ)
		for i, kn := range ks.spec.Knobs {
			fmt.Fprintf(&b, " %s=%d", kn.Name, ks.knobs[i])
		}
	}
	line := b.String()
	h := c.fprint ^ fnv64(line)
	c.fprint = splitmix64(&h)
	c.log = append(c.log, line)
	if len(c.log) > c.logCap {
		drop := len(c.log) - c.logCap
		c.log = append(c.log[:0], c.log[drop:]...)
		c.dropped += drop
	}
}

// LogFingerprint folds every record ever appended (retained or not)
// into one 64-bit fingerprint.
func (c *Controller) LogFingerprint() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fprint
}

// ---------------------------------------------------------------------------
// /qos document

// kernelDoc is one kernel's row in the /qos debug document.
type kernelDoc struct {
	Kernel   string         `json:"kernel"`
	Workers  int            `json:"workers"`
	Pressure float64        `json:"pressure"`
	Knobs    map[string]int `json:"knobs"`
}

// Doc is the /qos debughttp payload.
type Doc struct {
	Epoch          int         `json:"epoch"`
	TotalWorkers   int         `json:"total_workers"`
	BudgetUs       int64       `json:"budget_us"`
	Violations     int         `json:"violations"`
	LogFingerprint string      `json:"log_fingerprint"`
	Kernels        []kernelDoc `json:"kernels"`
	RecentLog      []string    `json:"recent_log"`
}

// QoSDoc implements the debughttp source interface: a point-in-time
// view of the controller, consistent under the controller mutex.
func (c *Controller) QoSDoc() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	doc := Doc{
		Epoch:        c.epoch,
		TotalWorkers: c.cfg.TotalWorkers,
		BudgetUs:     c.cfg.BudgetUs,
		Violations:   c.violations,
	}
	doc.LogFingerprint = fmt.Sprintf("%016x", c.fprint)
	for _, ks := range c.kernels {
		kd := kernelDoc{Kernel: ks.spec.ID, Workers: ks.workers,
			Pressure: float64(ks.pressureQ) / unit, Knobs: map[string]int{}}
		for i, kn := range ks.spec.Knobs {
			kd.Knobs[kn.Name] = ks.knobs[i]
		}
		doc.Kernels = append(doc.Kernels, kd)
	}
	tail := 16
	if len(c.log) < tail {
		tail = len(c.log)
	}
	doc.RecentLog = append(doc.RecentLog, c.log[len(c.log)-tail:]...)
	return doc
}

// ---------------------------------------------------------------------------
// helpers

// apportion splits total workers proportionally to demands by the
// largest-remainder method, flooring each share at mins[i]. Ties break
// by index order, so the result is deterministic.
func apportion(demands []int64, mins []int, total int) []int {
	n := len(demands)
	out := make([]int, n)
	var sum int64
	for _, d := range demands {
		sum += d
	}
	if sum <= 0 {
		sum = 1
	}
	// floor shares + remainders
	type rem struct {
		i int
		r int64
	}
	rems := make([]rem, 0, n)
	used := 0
	for i, d := range demands {
		share := d * int64(total)
		out[i] = int(share / sum)
		rems = append(rems, rem{i, share % sum})
		used += out[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; used < total; k = (k + 1) % n {
		out[rems[k].i]++
		used++
	}
	// raise to mins, taking from the largest non-floored shares
	for i := range out {
		for out[i] < mins[i] {
			j, best := -1, -1
			for k := range out {
				if k != i && out[k] > mins[k] && out[k] > best {
					best, j = out[k], k
				}
			}
			if j < 0 {
				break // infeasible; NewController pre-validates against this
			}
			out[j]--
			out[i]++
		}
	}
	return out
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// splitmix64 — the repo-wide deterministic generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64 hashes a string (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

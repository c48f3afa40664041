// Package faults provides the deterministic fault-injection layer shared
// by both schedulers: a seeded, reproducible schedule of fault windows
// (sensor dropout, VIO stall, plugin panic, transient cost spikes) that
// the virtual-time simulator (internal/simsched via internal/core) and
// the live runtime (internal/runtime supervisors and plugins) both
// consume. The same seed always yields the same schedule, so fault
// experiments are replayable bit-for-bit — the prerequisite for asserting
// graceful-degradation behaviour (bounded MTP growth, measured recovery
// time) in tests rather than eyeballing it.
package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
)

// Kind identifies one fault class.
type Kind string

// Fault kinds. Sensor dropouts suppress event production for a window;
// a VIO stall hangs the estimator until the window ends (the runtime
// times it out and restarts it); a plugin panic crashes a live plugin
// goroutine exactly once; a cost spike multiplies a component's compute
// cost for the window (thermal throttling, background daemon, GC pause).
// A link drop kills the network
// path of an offloaded session for the window (internal/netxr): the
// netsim link defers delivery past the window end plus a retransmission
// penalty, and a severed live connection is restarted by the session
// supervisor.
const (
	CameraDrop  Kind = "camera_drop"
	IMUDrop     Kind = "imu_drop"
	VIOStall    Kind = "vio_stall"
	PluginPanic Kind = "plugin_panic"
	CostSpike   Kind = "cost_spike"
	linkDrop    Kind = "link_drop"
)

// Window is one scheduled fault: Kind strikes Component during
// [Start, End) in session seconds. Magnitude is the cost multiplier for
// CostSpike windows and unused otherwise. PluginPanic windows are
// instantaneous (Start == End): they fire on the first event at or after
// Start.
type Window struct {
	Kind      Kind
	Component string
	Start     float64
	End       float64
	Magnitude float64
}

// Duration returns the window length in seconds.
func (w Window) Duration() float64 { return w.End - w.Start }

func (w Window) String() string {
	if w.Kind == CostSpike {
		return fmt.Sprintf("%s[%s] %.3f-%.3fs x%.1f", w.Kind, w.Component, w.Start, w.End, w.Magnitude)
	}
	return fmt.Sprintf("%s[%s] %.3f-%.3fs", w.Kind, w.Component, w.Start, w.End)
}

// Config parameterizes schedule generation. Counts of zero disable a
// fault class. Durations are means; generated windows draw uniformly
// from [0.7, 1.3] x mean. Windows land in the middle 80 % of the run so
// there is always a pre-fault baseline and a post-fault recovery phase
// to measure against.
type Config struct {
	Seed     int64
	Duration float64 // session length the schedule spans, seconds

	CameraDropouts    int
	CameraDropMeanSec float64

	IMUDropouts    int
	IMUDropMeanSec float64

	VIOStalls       int
	VIOStallMeanSec float64

	CostSpikes         int
	CostSpikeMeanSec   float64
	CostSpikeMagnitude float64  // cost multiplier, e.g. 3.0
	SpikeComponents    []string // components eligible for spikes

	PluginPanics int
	PanicPlugins []string // live plugin names eligible for panics

	// LinkDrops are network outages for offloaded sessions; Component
	// selects the direction ("uplink", "downlink", or "" for both — the
	// netsim link matches its direction name or empty).
	LinkDrops       int
	LinkDropMeanSec float64
	LinkComponents  []string
}

// Scenario returns a named preset config. Known names: "none",
// "vio-stall" (one mid-run stall >= 500 ms), "light" (one dropout, one
// stall, one spike), "stress" (multiple overlapping faults plus live
// plugin panics), "flaky-link" (two network outages).
func Scenario(name string, seed int64, duration float64) (Config, error) {
	c := Config{Seed: seed, Duration: duration}
	switch name {
	case "", "none":
	case "vio-stall":
		c.VIOStalls = 1
		c.VIOStallMeanSec = 0.75
	case "light":
		c.CameraDropouts = 1
		c.CameraDropMeanSec = 0.3
		c.IMUDropouts = 1
		c.IMUDropMeanSec = 0.15
		c.VIOStalls = 1
		c.VIOStallMeanSec = 0.6
		c.CostSpikes = 1
		c.CostSpikeMeanSec = 0.5
		c.CostSpikeMagnitude = 2.0
		c.SpikeComponents = []string{"application"}
	case "stress":
		c.CameraDropouts = 2
		c.CameraDropMeanSec = 0.35
		c.IMUDropouts = 1
		c.IMUDropMeanSec = 0.2
		c.VIOStalls = 2
		c.VIOStallMeanSec = 0.7
		c.CostSpikes = 2
		c.CostSpikeMeanSec = 0.5
		c.CostSpikeMagnitude = 3.0
		c.SpikeComponents = []string{"application", "vio"}
		c.PluginPanics = 2
		c.PanicPlugins = []string{"integrator.rk4"}
	case "flaky-link":
		c.LinkDrops = 2
		c.LinkDropMeanSec = 0.4
		c.LinkComponents = []string{"uplink", "downlink"}
	default:
		return c, fmt.Errorf("faults: unknown scenario %q", name)
	}
	return c, nil
}

// ScenarioNames lists the preset names accepted by Scenario.
func ScenarioNames() []string {
	return []string{"none", "vio-stall", "light", "stress", "flaky-link"}
}

// Schedule is a generated, immutable fault plan: windows sorted by start
// time. Schedules are safe for concurrent readers.
type Schedule struct {
	Seed    int64
	Windows []Window
}

// rng is a splitmix64 stream: tiny, seedable, stable across Go versions
// (unlike math/rand's unspecified algorithm), so schedules replay
// identically forever.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1F83D9ABFB41BD6B}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

// uniform returns a uniform value in [lo, hi).
func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float64() }

// Generate builds the deterministic schedule for a config. The same
// config (including seed) always produces the identical schedule.
func Generate(cfg Config) *Schedule {
	s := &Schedule{Seed: cfg.Seed}
	if cfg.Duration <= 0 {
		return s
	}
	r := newRNG(cfg.Seed)
	place := func(kind Kind, component string, meanSec float64, magnitude float64) {
		dur := meanSec * r.uniform(0.7, 1.3)
		lo := 0.1 * cfg.Duration
		hi := 0.9*cfg.Duration - dur
		if hi < lo {
			hi = lo
		}
		start := r.uniform(lo, hi)
		s.Windows = append(s.Windows, Window{
			Kind: kind, Component: component,
			Start: start, End: start + dur, Magnitude: magnitude,
		})
	}
	for i := 0; i < cfg.CameraDropouts; i++ {
		place(CameraDrop, "camera", cfg.CameraDropMeanSec, 0)
	}
	for i := 0; i < cfg.IMUDropouts; i++ {
		place(IMUDrop, "imu", cfg.IMUDropMeanSec, 0)
	}
	for i := 0; i < cfg.VIOStalls; i++ {
		place(VIOStall, "vio", cfg.VIOStallMeanSec, 0)
	}
	for i := 0; i < cfg.CostSpikes; i++ {
		comp := "application"
		if len(cfg.SpikeComponents) > 0 {
			comp = cfg.SpikeComponents[i%len(cfg.SpikeComponents)]
		}
		place(CostSpike, comp, cfg.CostSpikeMeanSec, cfg.CostSpikeMagnitude)
	}
	for i := 0; i < cfg.LinkDrops; i++ {
		comp := ""
		if len(cfg.LinkComponents) > 0 {
			comp = cfg.LinkComponents[i%len(cfg.LinkComponents)]
		}
		place(linkDrop, comp, cfg.LinkDropMeanSec, 0)
	}
	for i := 0; i < cfg.PluginPanics; i++ {
		plugin := ""
		if len(cfg.PanicPlugins) > 0 {
			plugin = cfg.PanicPlugins[i%len(cfg.PanicPlugins)]
		}
		at := r.uniform(0.1*cfg.Duration, 0.9*cfg.Duration)
		s.Windows = append(s.Windows, Window{Kind: PluginPanic, Component: plugin, Start: at, End: at})
	}
	sort.SliceStable(s.Windows, func(i, j int) bool {
		if s.Windows[i].Start != s.Windows[j].Start {
			return s.Windows[i].Start < s.Windows[j].Start
		}
		return s.Windows[i].Kind < s.Windows[j].Kind
	})
	return s
}

// ActiveIndex returns the index of the first window of the given kind
// (and component, unless component is "") covering session time t.
func (s *Schedule) ActiveIndex(kind Kind, component string, t float64) (int, bool) {
	if s == nil {
		return 0, false
	}
	for i, w := range s.Windows {
		if w.Start > t {
			break
		}
		if w.Kind != kind || t >= w.End {
			continue
		}
		if component != "" && w.Component != component {
			continue
		}
		return i, true
	}
	return 0, false
}

// SensorDropped reports whether the named sensor stream ("camera" or
// "imu") is inside a dropout window at time t.
func (s *Schedule) SensorDropped(component string, t float64) bool {
	if s == nil {
		return false
	}
	kind := CameraDrop
	if component == "imu" {
		kind = IMUDrop
	}
	_, ok := s.ActiveIndex(kind, component, t)
	return ok
}

// CostMultiplier returns the product of all cost-spike magnitudes
// covering component at time t (1 when none apply).
func (s *Schedule) CostMultiplier(component string, t float64) float64 {
	if s == nil {
		return 1
	}
	m := 1.0
	for _, w := range s.Windows {
		if w.Start > t {
			break
		}
		if w.Kind == CostSpike && w.Component == component && t < w.End && w.Magnitude > 0 {
			m *= w.Magnitude
		}
	}
	return m
}

// ByKind returns the windows of one kind, in schedule order.
func (s *Schedule) ByKind(kind Kind) []Window {
	if s == nil {
		return nil
	}
	var out []Window
	for _, w := range s.Windows {
		if w.Kind == kind {
			out = append(out, w)
		}
	}
	return out
}

// Fingerprint hashes the full schedule; equal fingerprints mean
// bit-identical schedules, which the determinism tests assert on.
func (s *Schedule) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(s.Seed))
	for _, w := range s.Windows {
		h.Write([]byte(w.Kind))
		h.Write([]byte(w.Component))
		put(math.Float64bits(w.Start))
		put(math.Float64bits(w.End))
		put(math.Float64bits(w.Magnitude))
	}
	return h.Sum64()
}

// InjectorService is the phonebook name under which the live runtime
// exposes the fault injector to plugins.
const InjectorService = "faults.injector"

// Injector adapts a schedule for the live runtime: plugins ask it
// whether they should crash now. Each panic window fires exactly once
// per run (a restarted plugin instance does not re-crash on the same
// window), so supervisor restart counts are deterministic.
type Injector struct {
	sched *Schedule
	mu    sync.Mutex
	fired map[int]bool
}

// NewInjector wraps a schedule (nil is allowed and injects nothing).
func NewInjector(s *Schedule) *Injector {
	return &Injector{sched: s, fired: map[int]bool{}}
}

// ShouldPanic reports whether the named plugin must panic at session
// time t, consuming the matching panic window.
func (in *Injector) ShouldPanic(plugin string, t float64) bool {
	if in == nil || in.sched == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, w := range in.sched.Windows {
		if w.Kind != PluginPanic || w.Component != plugin || in.fired[i] {
			continue
		}
		if t >= w.Start {
			in.fired[i] = true
			return true
		}
	}
	return false
}

// Fired returns how many panic windows have been consumed.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.fired)
}

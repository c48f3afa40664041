package runtime

// Plugin supervision and graceful degradation for the live runtime: each
// plugin can be wrapped in a Supervisor that recovers panics from its
// goroutines (reported via Context.Go), tracks a health state machine
// (healthy -> restarting -> healthy | failed), and restarts crashed
// plugins with exponential backoff plus deterministic jitter under a
// bounded restart budget.

import (
	"fmt"
	"sync"
	"time"

	"illixr/internal/telemetry"
)

// Health is one plugin or stream condition.
type Health int

// Health states: Healthy (operating normally), Restarting (crashed,
// backoff restart pending), failed (restart budget exhausted; permanently
// down). The values are the illixr_health_<name> gauge's; 1 is unused.
const (
	Healthy    Health = 0
	Restarting Health = 2
	failed     Health = 3
)

// String renders the state name.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Restarting:
		return "restarting"
	case failed:
		return "failed"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// HealthBoard is the shared registry of plugin and stream health,
// readable by telemetry and degradation policies. Its maps are made on
// first write: an unsupervised runtime (an offload client's) never
// writes them. The zero value is an empty board.
type HealthBoard struct {
	mu       sync.Mutex
	states   map[string]Health
	restarts map[string]int
	metrics  *telemetry.Registry
}

// NewHealthBoard creates an empty board.
func NewHealthBoard() *HealthBoard { return &HealthBoard{} }

// Set records the health of a named plugin or stream.
func (b *HealthBoard) Set(name string, h Health) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.states == nil {
		b.states = map[string]Health{}
	}
	b.states[name] = h
	reg := b.metrics
	b.mu.Unlock()
	if reg != nil { // an unmirrored board (one per offload session) builds no names
		reg.Gauge(telemetry.MetricName("health", name)).Set(float64(h))
	}
}

// IncrementRestart bumps and returns the restart counter for a plugin.
func (b *HealthBoard) IncrementRestart(name string) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	if b.restarts == nil {
		b.restarts = map[string]int{}
	}
	b.restarts[name]++
	n := b.restarts[name]
	reg := b.metrics
	b.mu.Unlock()
	reg.Counter(telemetry.MetricName("supervisor", name+"_restarts_total")).Inc()
	return n
}

// RestartCounts returns a copy of the per-plugin restart counters.
func (b *HealthBoard) RestartCounts() map[string]int {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.restarts))
	for k, v := range b.restarts {
		out[k] = v
	}
	return out
}

// Snapshot copies the current states.
func (b *HealthBoard) Snapshot() map[string]Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]Health, len(b.states))
	for k, v := range b.states {
		out[k] = v
	}
	return out
}

// SupervisorOptions tunes the restart policy.
type SupervisorOptions struct {
	// MaxRestarts is the total restart budget; once spent, the plugin
	// lands in Failed and stays there. Default 5.
	MaxRestarts int
	// BaseBackoff is the delay before the first restart; each further
	// restart doubles it up to MaxBackoff. Defaults 25ms / 1s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac adds a deterministic jitter of up to this fraction on top
	// of the exponential delay (decorrelates simultaneous restarts without
	// sacrificing reproducibility). Default 0.25.
	JitterFrac float64
	// Seed drives the jitter sequence; the same seed yields the same
	// backoff schedule.
	Seed int64
}

func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 5
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = time.Second
	}
	if o.JitterFrac == 0 {
		o.JitterFrac = 0.25
	}
	return o
}

// backoff returns the deterministic delay before restart attempt n
// (1-based): BaseBackoff * 2^(n-1) capped at MaxBackoff, plus seeded
// jitter in [0, JitterFrac) of the capped delay.
func (o SupervisorOptions) backoff(n int) time.Duration {
	o = o.withDefaults()
	if n < 1 {
		n = 1
	}
	d := o.BaseBackoff
	for i := 1; i < n && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	// splitmix64 on (seed, n) for replayable jitter
	z := uint64(o.Seed)*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53)
	return d + time.Duration(float64(d)*o.JitterFrac*u)
}

// Supervisor wraps a plugin factory as a Plugin: it starts an instance,
// converts panics (from Start or from goroutines launched via
// Context.Go) into restarts with backoff, and gives up into the Failed
// state once the restart budget is spent. It is itself loadable by
// Loader, so supervised and bare plugins mix freely.
type Supervisor struct {
	name    string
	factory Factory
	opts    SupervisorOptions

	mu      sync.Mutex
	parent  *Context
	plugin  Plugin
	gen     int
	state   Health
	rest    int
	stopped bool
	// startCrash is the crash an instance reported while restartLoop was
	// still inside its Start (starting): the start then counts as failed.
	starting   bool
	startCrash error
	wg         sync.WaitGroup
}

// NewSupervisor builds a supervisor for the named plugin role; factory
// is invoked for the initial start and for every restart (crashed
// instances are discarded, never reused).
func NewSupervisor(name string, factory Factory, opts SupervisorOptions) *Supervisor {
	return &Supervisor{name: name, factory: factory, opts: opts.withDefaults()}
}

// Name implements Plugin.
func (s *Supervisor) Name() string { return s.name }

// Health returns the current supervision state.
func (s *Supervisor) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Restarts returns how many restarts have been performed.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rest
}

// childContext derives the per-instance context whose crash reports are
// tagged with the instance generation, so a crash from a replaced
// instance cannot trigger a spurious second restart.
func (s *Supervisor) childContext(gen int) *Context {
	return &Context{
		Switchboard: s.parent.Switchboard,
		Phonebook:   s.parent.Phonebook,
		Health:      s.parent.Health,
		crash:       func(_ string, err error) { s.onCrash(gen, err) },
	}
}

// safeStart runs plugin.Start converting panics into errors.
func safeStart(p Plugin, ctx *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runtime: %s panicked in Start: %v", p.Name(), r)
		}
	}()
	return p.Start(ctx)
}

// safeStop runs plugin.Stop converting panics into errors.
func safeStop(p Plugin) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runtime: %s panicked in Stop: %v", p.Name(), r)
		}
	}()
	return p.Stop()
}

// Start implements Plugin: a failed initial start is a load error (the
// supervisor only mediates crashes after a successful start).
func (s *Supervisor) Start(ctx *Context) error {
	s.mu.Lock()
	s.parent = ctx
	s.stopped = false
	gen := s.gen
	child := s.childContext(gen)
	p := s.factory()
	s.mu.Unlock()

	if err := safeStart(p, child); err != nil {
		return err
	}
	s.mu.Lock()
	s.plugin = p
	s.setState(Healthy)
	s.mu.Unlock()
	return nil
}

// setState makes a health transition under s.mu, board first: anyone who
// reads the new state off the supervisor finds the board already there.
// (HealthBoard never calls back into a supervisor, so nesting its lock
// inside s.mu cannot deadlock.)
func (s *Supervisor) setState(h Health) {
	s.parent.Health.Set(s.name, h)
	s.state = h
}

// onCrash handles a crash report from instance generation gen.
func (s *Supervisor) onCrash(gen int, err error) {
	s.mu.Lock()
	if s.starting && gen == s.gen && !s.stopped {
		// the instance restartLoop is starting died before the loop could
		// mark it Healthy; dropping this report would leave a dead plugin
		// behind a Healthy supervisor
		s.startCrash = err
	}
	if s.stopped || gen != s.gen || s.state == Restarting || s.state == failed {
		s.mu.Unlock()
		return
	}
	old := s.plugin
	s.plugin = nil
	s.setState(Restarting)
	s.wg.Add(1)
	s.mu.Unlock()

	if old != nil {
		_ = safeStop(old)
	}
	go s.restartLoop(gen)
}

// restartLoop retries the factory with backoff until a start succeeds,
// the budget is spent, or the supervisor is stopped.
func (s *Supervisor) restartLoop(gen int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if s.stopped || gen != s.gen {
			s.mu.Unlock()
			return
		}
		if s.rest >= s.opts.MaxRestarts {
			s.setState(failed)
			s.mu.Unlock()
			return
		}
		s.rest++
		attempt := s.rest
		s.mu.Unlock()

		time.Sleep(s.opts.backoff(attempt))

		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		s.gen++
		gen = s.gen
		s.starting, s.startCrash = true, nil
		child := s.childContext(gen)
		p := s.factory()
		s.mu.Unlock()

		err := safeStart(p, child)
		s.mu.Lock()
		s.starting = false
		if s.stopped {
			s.mu.Unlock()
			_ = safeStop(p)
			return
		}
		if err == nil && s.startCrash != nil {
			err = s.startCrash
			s.mu.Unlock()
			_ = safeStop(p)
			s.mu.Lock()
		}
		if err == nil {
			s.plugin = p
			s.parent.Health.IncrementRestart(s.name)
			s.setState(Healthy)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		// start failed: loop and spend another restart from the budget
	}
}

// Stop implements Plugin: halts any pending restart and stops the live
// instance.
func (s *Supervisor) Stop() error {
	s.mu.Lock()
	s.stopped = true
	old := s.plugin
	s.plugin = nil
	s.mu.Unlock()
	var err error
	if old != nil {
		err = safeStop(old)
	}
	s.wg.Wait()
	return err
}

var _ Plugin = (*Supervisor)(nil)

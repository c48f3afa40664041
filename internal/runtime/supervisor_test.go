package runtime

import (
	"strings"
	"testing"
	"time"

	"illixr/internal/telemetry"
)

// crashyPlugin panics in its worker goroutine for the first panicFor
// instances the factory creates, then behaves.
type crashyPlugin struct {
	id      int
	trigger chan struct{}
	alive   chan struct{} // closed when the worker exits cleanly
	doPanic bool
}

func (p *crashyPlugin) Name() string { return "crashy" }
func (p *crashyPlugin) Start(ctx *Context) error {
	p.alive = make(chan struct{})
	ctx.Go(p.Name(), func() {
		defer close(p.alive)
		for range p.trigger {
			if p.doPanic {
				panic("injected crash")
			}
		}
	})
	return nil
}
func (p *crashyPlugin) Stop() error { return nil }

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func supTestOptions() SupervisorOptions {
	return SupervisorOptions{
		MaxRestarts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        1,
	}
}

func TestSupervisorRestartsPanickedPlugin(t *testing.T) {
	trigger := make(chan struct{})
	created := 0
	factory := func() Plugin {
		created++
		// only the first instance crashes
		return &crashyPlugin{id: created, trigger: trigger, doPanic: created == 1}
	}
	sup := NewSupervisor("crashy", factory, supTestOptions())
	l := NewLoader()
	if err := l.Load(sup); err != nil {
		t.Fatal(err)
	}
	if sup.Health() != Healthy {
		t.Fatalf("initial health = %v", sup.Health())
	}
	trigger <- struct{}{} // instance 1 panics
	eventually(t, "restart", func() bool {
		// Restarts first: it counts attempts, so 1 means the crash has been
		// seen, and a Healthy read after that is the restarted instance's
		// (the other order can pair the pre-crash Healthy with the attempt)
		return sup.Restarts() == 1 && sup.Health() == Healthy
	})
	if created != 2 {
		t.Errorf("factory invoked %d times, want 2", created)
	}
	if l.Context().Health.Get("crashy") != Healthy {
		t.Errorf("board health = %v", l.Context().Health.Get("crashy"))
	}
	if l.Context().Health.Restarts("crashy") != 1 {
		t.Errorf("board restarts = %d", l.Context().Health.Restarts("crashy"))
	}
	// the healthy instance keeps consuming triggers
	trigger <- struct{}{}
	if err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestSupervisorFailsAfterBudget(t *testing.T) {
	factory := func() Plugin {
		p := &crashyPlugin{trigger: make(chan struct{}), doPanic: true}
		return &alwaysCrashPlugin{inner: p}
	}
	sup := NewSupervisor("doomed", factory, supTestOptions())
	l := NewLoader()
	if err := l.Load(sup); err != nil {
		t.Fatal(err)
	}
	eventually(t, "failed state", func() bool { return sup.Health() == failed })
	if got := sup.Restarts(); got != 3 {
		t.Errorf("restarts = %d, want the full budget of 3", got)
	}
	if l.Context().Health.Get("doomed") != failed {
		t.Errorf("board health = %v", l.Context().Health.Get("doomed"))
	}
	// stays failed: no further restarts happen
	time.Sleep(20 * time.Millisecond)
	if sup.Health() != failed || sup.Restarts() != 3 {
		t.Error("failed supervisor resurrected itself")
	}
	if err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// alwaysCrashPlugin panics from its goroutine immediately after Start.
type alwaysCrashPlugin struct{ inner *crashyPlugin }

func (p *alwaysCrashPlugin) Name() string { return "doomed" }
func (p *alwaysCrashPlugin) Start(ctx *Context) error {
	ctx.Go(p.Name(), func() { panic("dead on arrival") })
	return nil
}
func (p *alwaysCrashPlugin) Stop() error { return nil }

func TestSupervisorStopDuringBackoff(t *testing.T) {
	opts := supTestOptions()
	opts.BaseBackoff = 50 * time.Millisecond
	opts.MaxBackoff = 50 * time.Millisecond
	started := make(chan struct{}, 8)
	factory := func() Plugin {
		started <- struct{}{}
		return &alwaysCrashPlugin{}
	}
	sup := NewSupervisor("doomed", factory, opts)
	l := NewLoader()
	if err := l.Load(sup); err != nil {
		t.Fatal(err)
	}
	<-started
	eventually(t, "restarting state", func() bool { return sup.Health() == Restarting })
	// Stop while the restart is sleeping: must return promptly without
	// creating another instance afterwards.
	done := make(chan error, 1)
	go func() { done <- l.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung waiting for backoff")
	}
}

func TestBackoffDeterministicBoundedGrowing(t *testing.T) {
	opts := SupervisorOptions{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, JitterFrac: 0.25, Seed: 9}
	var prev time.Duration
	for n := 1; n <= 8; n++ {
		d := opts.backoff(n)
		if d != opts.backoff(n) {
			t.Fatalf("attempt %d: jitter not deterministic", n)
		}
		base := 10 * time.Millisecond << (n - 1)
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if d < base || d > base+time.Duration(0.25*float64(base)) {
			t.Errorf("attempt %d: backoff %v outside [%v, %v+25%%]", n, d, base, base)
		}
		if n <= 4 && d <= prev {
			t.Errorf("attempt %d: backoff %v not growing past %v", n, d, prev)
		}
		prev = d
	}
	other := opts
	other.Seed = 10
	diff := false
	for n := 1; n <= 8; n++ {
		if opts.backoff(n) != other.backoff(n) {
			diff = true
		}
	}
	if !diff {
		t.Error("jitter ignores the seed")
	}
}

func TestContextGoReportsPanicToSupervisorHook(t *testing.T) {
	got := make(chan error, 1)
	ctx := &Context{crash: func(name string, err error) { got <- err }}
	ctx.Go("imu.player", func() { panic("boom") })
	select {
	case err := <-got:
		if err == nil || !strings.Contains(err.Error(), "imu.player panicked: boom") {
			t.Errorf("crash report = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panic never reported")
	}
	// a clean goroutine reports nothing
	done := make(chan struct{})
	ctx.Go("ok", func() { close(done) })
	<-done
	select {
	case err := <-got:
		t.Errorf("spurious crash report: %v", err)
	default:
	}
}

// TestSupervisorBoardNeverBehind: whoever reads a transition off the
// supervisor must find the health board already showing it. The reader
// spins (no sleep) so it lands inside the window between the two updates
// if there is one.
func TestSupervisorBoardNeverBehind(t *testing.T) {
	for round := 0; round < 50; round++ {
		trigger := make(chan struct{})
		created := 0
		sup := NewSupervisor("crashy", func() Plugin {
			created++
			return &crashyPlugin{id: created, trigger: trigger, doPanic: created == 1}
		}, supTestOptions())
		l := NewLoader()
		if err := l.Load(sup); err != nil {
			t.Fatal(err)
		}
		board := l.Context().Health
		trigger <- struct{}{} // instance 1 panics
		deadline := time.Now().Add(5 * time.Second)
		for !(sup.Restarts() == 1 && sup.Health() == Healthy) { // in this order, see above
			// the board read is bracketed: only a supervisor that was
			// Restarting on both sides pins what the board had to show
			if before, b := sup.Health(), board.Get("crashy"); before == Restarting && sup.Health() == Restarting && b != Restarting {
				t.Fatalf("round %d: supervisor restarting, board %v", round, b)
			}
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the restart")
			}
		}
		if h, n := board.Get("crashy"), board.Restarts("crashy"); h != Healthy || n != 1 {
			t.Fatalf("round %d: supervisor healthy after 1 restart, board %v with %d restarts", round, h, n)
		}
		if err := l.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// Get returns the recorded health; unknown names report Healthy.
func (b *HealthBoard) Get(name string) Health {
	if b == nil {
		return Healthy
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.states[name]
}

// Restarts returns the restart count for a plugin.
func (b *HealthBoard) Restarts(name string) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restarts[name]
}

// SetMetrics mirrors every health transition and restart onto a metrics
// registry: a gauge illixr_health_<name> holding the numeric state and a
// counter illixr_supervisor_<name>_restarts_total. The supervision code
// paths need no separate wiring — the board is the single observability
// chokepoint for plugin condition.
func (b *HealthBoard) SetMetrics(reg *telemetry.Registry) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.metrics = reg
	b.mu.Unlock()
}

package slo

import (
	"math"
	"testing"

	"illixr/internal/telemetry"
)

func TestBurnRateMath(t *testing.T) {
	e := NewEngine(nil)
	e.AddObjective(Objective{Name: "mtp_p99", Bound: 20, Budget: 0.1, WindowSec: 10})
	// 80 good, 20 bad inside one window → bad fraction 0.2 → burn 2.0
	for i := 0; i < 80; i++ {
		e.Observe("mtp_p99", float64(i)*0.1, 15) // under bound
	}
	for i := 0; i < 20; i++ {
		e.Observe("mtp_p99", 8+float64(i)*0.05, 25) // over bound
	}
	burn := e.BurnRate("mtp_p99", 9.9)
	if math.Abs(burn-2.0) > 1e-9 {
		t.Errorf("burn rate = %v, want 2.0", burn)
	}
	snap := e.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	s := snap[0]
	if s.Good != 80 || s.Bad != 20 {
		t.Errorf("good/bad = %d/%d, want 80/20", s.Good, s.Bad)
	}
	if math.Abs(s.BadFraction-0.2) > 1e-9 || math.Abs(s.BurnRate-2.0) > 1e-9 {
		t.Errorf("status %+v", s)
	}
	if s.BudgetRemaining != 0 { // burn > 1 ⇒ budget exhausted
		t.Errorf("budget remaining = %v, want 0", s.BudgetRemaining)
	}
}

func TestWindowExpiry(t *testing.T) {
	e := NewEngine(nil)
	e.AddObjective(Objective{Name: "drop", Budget: 0.5, WindowSec: 8})
	for i := 0; i < 10; i++ {
		e.Observe("drop", float64(i)*0.1, 1) // all over the 0 bound, near t=0
	}
	if burn := e.BurnRate("drop", 1); burn != 2.0 {
		t.Fatalf("burn inside window = %v, want 2.0", burn)
	}
	// far past the window the old badness has aged out
	if burn := e.BurnRate("drop", 100); burn != 0 {
		t.Errorf("burn after expiry = %v, want 0", burn)
	}
}

// A 0/1 event stream (0 = kept, 1 = lost, bound 0) spending exactly its
// budget burns at 1.0.
func TestEventObjective(t *testing.T) {
	e := NewEngine(nil)
	e.AddObjective(Objective{Name: "session_loss", Budget: 0.01, WindowSec: 60})
	for i := 0; i < 99; i++ {
		e.Observe("session_loss", float64(i)*0.5, 0)
	}
	e.Observe("session_loss", 49.5, 1)
	burn := e.BurnRate("session_loss", 50)
	if math.Abs(burn-1.0) > 1e-9 { // exactly at budget: 1% bad on a 1% budget
		t.Errorf("burn = %v, want 1.0", burn)
	}
	if math.IsNaN(burn) || math.IsInf(burn, 0) {
		t.Errorf("burn must be finite, got %v", burn)
	}
}

func TestEngineExportsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(reg)
	e.AddObjective(Objective{Name: "mtp_p99", Bound: 20, Budget: 0.1, WindowSec: 10})
	e.Observe("mtp_p99", 0, 25)
	e.Observe("mtp_p99", 0.1, 10)
	snap := reg.Snapshot()
	if snap.Counters["illixr_slo_mtp_p99_events_total"] != 2 {
		t.Errorf("events counter = %v", snap.Counters)
	}
	if snap.Counters["illixr_slo_mtp_p99_violations_total"] != 1 {
		t.Errorf("violations counter = %v", snap.Counters)
	}
	burn, ok := snap.Gauges["illixr_slo_mtp_p99_burn_rate"]
	if !ok || math.IsNaN(burn) || math.IsInf(burn, 0) {
		t.Errorf("burn gauge = %v (present=%v)", burn, ok)
	}
}

func TestNilAndUnknownSafe(t *testing.T) {
	var e *Engine
	e.AddObjective(Objective{Name: "x"})
	e.Observe("x", 0, 1)
	if e.BurnRate("x", 0) != 0 || e.Snapshot() != nil {
		t.Fatal("nil engine must be inert")
	}
	live := NewEngine(nil)
	live.Observe("never-registered", 0, 1) // must not panic
	if got := live.BurnRate("never-registered", 0); got != 0 {
		t.Errorf("unknown objective burn = %v", got)
	}
}

// BurnRate returns an objective's burn rate at now (0 for unknown names
// or empty windows).
func (e *Engine) BurnRate(name string, now float64) float64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.objs[name]
	if !ok {
		return 0
	}
	burn, _ := st.ratesLocked(now)
	return burn
}

package telemetry

import "testing"

func TestFlightRecorderOrderAndWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	clock := 0.0
	r.SetClock(func() float64 { clock += 1; return clock })
	for i := 0; i < 6; i++ {
		r.Record(EventAdmit, "replica-0", "")
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// oldest-first, and the first two (seq 1,2) were overwritten
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if evs[0].T >= evs[3].T {
		t.Errorf("events not time-ordered: %v .. %v", evs[0].T, evs[3].T)
	}
	if r.Overwritten() != 2 {
		t.Errorf("overwritten = %d, want 2", r.Overwritten())
	}
	if r.Recorded() != 6 {
		t.Errorf("recorded = %d, want 6", r.Recorded())
	}
	if r.Len() != 4 {
		t.Errorf("len = %d, want 4", r.Len())
	}
}

func TestFlightRecorderExplicitTime(t *testing.T) {
	r := NewFlightRecorder(8)
	r.RecordAt(12.5, EventDown, "replica-1", "dial refused")
	evs := r.Events()
	if len(evs) != 1 || evs[0].T != 12.5 || evs[0].Kind != EventDown || evs[0].Node != "replica-1" {
		t.Fatalf("event = %+v", evs)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(EventAdmit, "x", "")
	r.RecordAt(1, EventRefuse, "y", "")
	r.SetClock(func() float64 { return 0 })
	if r.Events() != nil || r.Len() != 0 || r.Overwritten() != 0 || r.Recorded() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// Len returns the number of retained events.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// SetClock replaces the recorder's fallback clock (Record without an
// explicit time). The bench installs the virtual clock here so event
// timestamps line up with the simulated timeline.
func (r *FlightRecorder) SetClock(now func() float64) {
	if r == nil || now == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

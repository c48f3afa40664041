package simsched

import "testing"

func TestObserverSeesLifecycle(t *testing.T) {
	s := New(1)
	counts := map[TaskEventKind]int{}
	var completedSpan TaskEvent
	s.SetObserver(func(ev TaskEvent) {
		counts[ev.Kind]++
		if ev.Kind == TaskCompleted {
			completedSpan = ev
		}
	})
	s.AddTask(&Task{
		Name: "a", Period: 0.010, Priority: 1,
		Work: func(k int, t float64) (float64, float64) { return 0.001, 0 },
	})
	s.Run(0.1)

	st := s.Stats("a")
	if counts[TaskReleased] != st.Released {
		t.Errorf("observer releases = %d, stats = %d", counts[TaskReleased], st.Released)
	}
	if counts[TaskCompleted] != st.Completed {
		t.Errorf("observer completions = %d, stats = %d", counts[TaskCompleted], st.Completed)
	}
	// the final instance may start but not complete before the horizon
	if counts[taskStarted] < st.Completed || counts[taskStarted] > st.Completed+1 {
		t.Errorf("observer starts = %d, want %d or %d", counts[taskStarted], st.Completed, st.Completed+1)
	}
	if d := completedSpan.Finish - completedSpan.Start; d < 0.001-1e-9 || d > 0.001+1e-9 {
		t.Errorf("completion span duration = %g, want 0.001", d)
	}
}

func TestObserverSeesDropsAndFaults(t *testing.T) {
	s := New(1)
	counts := map[TaskEventKind]int{}
	s.SetObserver(func(ev TaskEvent) { counts[ev.Kind]++ })
	s.AddTask(&Task{
		Name: "overrun", Period: 0.010, Priority: 1, DropIfBusy: true,
		// work longer than the period: every other release drops
		Work: func(k int, t float64) (float64, float64) { return 0.015, 0 },
	})
	s.AddTask(&Task{
		Name: "faulty", Period: 0.010, Priority: 2,
		SkipRelease: func(k int, t float64) bool { return k%2 == 0 },
		Work:        func(k int, t float64) (float64, float64) { return 0.0001, 0 },
	})
	s.Run(0.1)

	if counts[TaskDropped] != s.Stats("overrun").Dropped {
		t.Errorf("observer drops = %d, stats = %d", counts[TaskDropped], s.Stats("overrun").Dropped)
	}
	if counts[TaskDropped] == 0 {
		t.Error("expected at least one drop")
	}
	if counts[TaskFaulted] != s.Stats("faulty").Faulted {
		t.Errorf("observer faults = %d, stats = %d", counts[TaskFaulted], s.Stats("faulty").Faulted)
	}
	if counts[TaskFaulted] == 0 {
		t.Error("expected at least one fault suppression")
	}
}

func TestObserverDeterminismUnchanged(t *testing.T) {
	run := func(withObs bool) []Span {
		s := New(2)
		if withObs {
			s.SetObserver(func(TaskEvent) {})
		}
		s.AddTask(&Task{Name: "x", Period: 0.007, Priority: 1,
			Work: func(k int, t float64) (float64, float64) { return 0.002, 0.001 }})
		s.AddTask(&Task{Name: "y", Period: 0.004, Priority: 2,
			Work: func(k int, t float64) (float64, float64) { return 0.001, 0 }})
		s.Run(0.25)
		return s.Stats("x").Spans
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("observer changed completion count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observer changed schedule at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

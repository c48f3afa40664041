package simsched

import (
	"math"
	"testing"
)

func TestPeriodicTaskRuns(t *testing.T) {
	s := New(2)
	s.AddTask(&Task{
		Name: "a", Period: 0.01, Priority: 1,
		Work: func(k int, tm float64) (float64, float64) { return 0.002, 0 },
	})
	s.Run(1.0)
	st := s.Stats("a")
	if st.Completed != 100 {
		t.Errorf("completed %d, want 100", st.Completed)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d", st.Dropped)
	}
}

func TestOverrunDropsFrames(t *testing.T) {
	s := New(1)
	s.AddTask(&Task{
		Name: "slow", Period: 0.01, Priority: 1, DropIfBusy: true,
		Work: func(k int, tm float64) (float64, float64) { return 0.025, 0 },
	})
	s.Run(1.0)
	st := s.Stats("slow")
	// a 25 ms instance blocks until the next release after 30 ms → one
	// completion per 3 periods: ~33 complete, ~66 drop
	if st.Completed < 31 || st.Completed > 35 {
		t.Errorf("completed %d", st.Completed)
	}
	if st.Dropped < 60 {
		t.Errorf("dropped %d", st.Dropped)
	}
}

func TestPriorityWins(t *testing.T) {
	s := New(1)
	var hiWaits, loWaits []float64
	s.AddTask(&Task{
		Name: "hi", Period: 0.01, Priority: 10,
		Work: func(k int, tm float64) (float64, float64) { return 0.001, 0 },
		OnComplete: func(k int, rel, start, fin float64) {
			hiWaits = append(hiWaits, start-rel)
		},
	})
	s.AddTask(&Task{
		Name: "lo", Period: 0.01, Priority: 1,
		Work: func(k int, tm float64) (float64, float64) { return 0.004, 0 },
		OnComplete: func(k int, rel, start, fin float64) {
			loWaits = append(loWaits, start-rel)
		},
	})
	s.Run(0.5)
	// The high-priority task should essentially never wait at release
	// points where both are pending.
	if avg(hiWaits) >= avg(loWaits) {
		t.Errorf("high-priority waits %.4f not below low-priority %.4f",
			avg(hiWaits), avg(loWaits))
	}
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestMultiCoreParallelism(t *testing.T) {
	// two tasks that each need 100% of one core: on 2 cores both complete.
	mk := func(name string) *Task {
		return &Task{
			Name: name, Period: 0.01, Priority: 1, DropIfBusy: true,
			Work: func(k int, tm float64) (float64, float64) { return 0.009, 0 },
		}
	}
	s1 := New(1)
	s1.AddTask(mk("a"))
	s1.AddTask(mk("b"))
	s1.Run(1.0)
	s2 := New(2)
	s2.AddTask(mk("a"))
	s2.AddTask(mk("b"))
	s2.Run(1.0)
	tot1 := s1.Stats("a").Completed + s1.Stats("b").Completed
	tot2 := s2.Stats("a").Completed + s2.Stats("b").Completed
	if tot2 <= tot1 {
		t.Errorf("2-core total %d not above 1-core %d", tot2, tot1)
	}
	if s2.Stats("a").Dropped > 1 || s2.Stats("b").Dropped > 1 {
		t.Errorf("drops on an uncontended 2-core system: %+v %+v",
			s2.Stats("a").Dropped, s2.Stats("b").Dropped)
	}
}

func TestGPUSerializes(t *testing.T) {
	// two GPU-heavy tasks share the single GPU: combined throughput is
	// bounded by GPU capacity.
	mk := func(name string) *Task {
		return &Task{
			Name: name, Period: 0.01, Priority: 1, DropIfBusy: true,
			Work: func(k int, tm float64) (float64, float64) { return 0.0005, 0.008 },
		}
	}
	s := New(4)
	s.AddTask(mk("a"))
	s.AddTask(mk("b"))
	s.Run(1.0)
	total := s.Stats("a").Completed + s.Stats("b").Completed
	// GPU can fit at most 1.0/0.008 = 125 instances
	if total > 126 {
		t.Errorf("GPU oversubscribed: %d instances", total)
	}
	if total < 110 {
		t.Errorf("GPU underutilized: %d instances", total)
	}
	_, gpuU := s.Utilization()
	if gpuU < 0.85 {
		t.Errorf("GPU utilization %.2f", gpuU)
	}
}

func TestTriggeredTask(t *testing.T) {
	s := New(2)
	completions := 0
	s.AddTask(&Task{
		Name: "consumer", Priority: 5, DropIfBusy: true,
		Work: func(k int, tm float64) (float64, float64) { return 0.001, 0 },
		OnComplete: func(k int, rel, start, fin float64) {
			completions++
		},
	})
	s.AddTask(&Task{
		Name: "producer", Period: 0.02, Priority: 1,
		Work: func(k int, tm float64) (float64, float64) { return 0.001, 0 },
		OnComplete: func(k int, rel, start, fin float64) {
			s.Trigger("consumer")
		},
	})
	s.Run(1.0)
	if completions < 45 || completions > 51 {
		t.Errorf("consumer ran %d times", completions)
	}
}

func TestTriggerLatestWins(t *testing.T) {
	// a slow consumer triggered faster than it can run keeps only the
	// newest queued instance
	s := New(1)
	s.AddTask(&Task{
		Name: "consumer", Priority: 1, DropIfBusy: true,
		Work: func(k int, tm float64) (float64, float64) { return 0.05, 0 },
	})
	s.AddTask(&Task{
		Name: "producer", Period: 0.01, Priority: 10,
		Work: func(k int, tm float64) (float64, float64) { return 0.0001, 0 },
		OnComplete: func(k int, rel, start, fin float64) {
			s.Trigger("consumer")
		},
	})
	s.Run(1.0)
	st := s.Stats("consumer")
	if st.Completed > 21 {
		t.Errorf("slow consumer completed %d times", st.Completed)
	}
	if st.Dropped == 0 {
		t.Error("no drops recorded for overwhelmed consumer")
	}
}

func TestSpansAndResponseTimes(t *testing.T) {
	s := New(1)
	s.AddTask(&Task{
		Name: "a", Period: 0.1, Priority: 1,
		Work: func(k int, tm float64) (float64, float64) { return 0.01, 0.005 },
	})
	s.Run(0.35)
	st := s.Stats("a")
	if len(st.Spans) != st.Completed {
		t.Fatalf("spans %d vs completed %d", len(st.Spans), st.Completed)
	}
	for _, sp := range st.Spans {
		if sp.Finish-sp.Start < 0.015-1e-12 {
			t.Errorf("span shorter than work: %+v", sp)
		}
	}
	rts := st.ResponseTimes()
	for _, rt := range rts {
		if math.Abs(rt-0.015) > 1e-9 {
			t.Errorf("uncontended response time %v", rt)
		}
	}
	exes := st.ExecutionTimes()
	if math.Abs(exes[0]-0.015) > 1e-12 {
		t.Errorf("execution time %v", exes[0])
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := New(2)
	s.AddTask(&Task{
		Name: "a", Period: 0.01, Priority: 1,
		Work: func(k int, tm float64) (float64, float64) { return 0.005, 0.002 },
	})
	s.Run(1.0)
	cpu, gpu := s.Utilization()
	// 100 instances × 5 ms on 2 cores over 1 s → 0.25
	if math.Abs(cpu-0.25) > 0.02 {
		t.Errorf("cpu util %v", cpu)
	}
	if math.Abs(gpu-0.2) > 0.02 {
		t.Errorf("gpu util %v", gpu)
	}
}

func TestOffsetDelaysFirstRelease(t *testing.T) {
	s := New(1)
	var firstRelease = -1.0
	s.AddTask(&Task{
		Name: "a", Period: 0.1, Offset: 0.05, Priority: 1,
		Work: func(k int, tm float64) (float64, float64) { return 0.001, 0 },
		OnComplete: func(k int, rel, start, fin float64) {
			if firstRelease < 0 {
				firstRelease = rel
			}
		},
	})
	s.Run(0.5)
	if math.Abs(firstRelease-0.05) > 1e-12 {
		t.Errorf("first release at %v", firstRelease)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Span {
		s := New(3)
		for _, name := range []string{"x", "y", "z"} {
			n := name
			s.AddTask(&Task{
				Name: n, Period: 0.007, Priority: len(n),
				Work: func(k int, tm float64) (float64, float64) {
					return 0.001 + 0.0001*float64(k%5), 0.0005
				},
			})
		}
		s.Run(0.5)
		return s.Stats("x").Spans
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic completion count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// ExecutionTimes returns CPU+GPU duration per completed instance.
func (ts TaskStats) ExecutionTimes() []float64 {
	out := make([]float64, len(ts.Spans))
	for i, s := range ts.Spans {
		out[i] = s.CPUDuration + s.GPUDuration
	}
	return out
}

// ResponseTimes returns finish−release per completed instance (seconds).
func (ts TaskStats) ResponseTimes() []float64 {
	out := make([]float64, len(ts.Spans))
	for i, s := range ts.Spans {
		out[i] = s.Finish - s.Release
	}
	return out
}

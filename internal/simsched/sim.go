// Package simsched is the deterministic virtual-time scheduler that runs
// the integrated ILLIXR system for the paper's experiments: periodic and
// triggered tasks with CPU and GPU phases compete for a multi-core CPU
// and a single GPU, with latest-wins frame dropping when a component
// overruns its period — reproducing the contention and deadline behaviour
// of §IV-A without depending on the grading machine's wall clock.
package simsched

import (
	"math"
	"sort"
)

// Task describes one schedulable component.
type Task struct {
	Name string
	// Period in seconds; 0 means the task is only released via Trigger.
	Period float64
	// Offset delays the first periodic release.
	Offset float64
	// Priority: higher value is scheduled first. Ties break by name.
	Priority int
	// DropIfBusy: a release that finds a previous instance still queued or
	// running is dropped (the component skips a frame).
	DropIfBusy bool
	// Work returns the CPU and GPU phase durations (seconds) of instance
	// k released at time t. The CPU phase runs first, then the GPU phase.
	Work func(k int, t float64) (cpuSec, gpuSec float64)
	// GPUSlice, when > 0, time-slices the GPU phase into quanta of this
	// many seconds so higher-priority GPU work can preempt between slices
	// (GPUs timeslice between contexts; without this a long render pass
	// would block the latency-critical reprojection pass).
	GPUSlice float64
	// OnComplete is called when instance k finishes both phases.
	OnComplete func(k int, release, start, finish float64)
	// SkipRelease, when non-nil, is consulted at every release; returning
	// true suppresses the instance before it is queued — the fault hook
	// for sensor dropout or a hung upstream (the work never arrives).
	// Suppressed releases are counted in Stats.Faulted and do not invoke
	// Work or OnComplete.
	SkipRelease func(k int, t float64) bool

	// internal
	next     float64
	k        int
	queued   *instance
	inFlight int
	stats    TaskStats
}

// TaskEventKind discriminates scheduler observer callbacks.
type TaskEventKind int

// Observer event kinds: a release entering the queue, a release
// suppressed by a fault hook, an instance dropped latest-wins, an
// instance starting on a resource, and an instance completing.
const (
	TaskReleased TaskEventKind = iota
	TaskFaulted
	TaskDropped
	taskStarted
	TaskCompleted
)

// TaskEvent is one scheduler observation delivered to the observer.
type TaskEvent struct {
	Task string
	Kind TaskEventKind
	K    int     // instance number
	T    float64 // virtual time of the event
	// Completed instances also carry the full span.
	Release, Start, Finish float64
	CPU, GPU               float64 // seconds
}

// SetObserver installs a callback invoked synchronously for every
// release, fault suppression, drop, start, and completion — the
// observability tap the metrics and tracing layers hang off. A nil
// observer (the default) costs one predicted branch per event.
func (s *Sim) SetObserver(fn func(TaskEvent)) { s.observer = fn }

func (s *Sim) observe(ev TaskEvent) {
	if s.observer != nil {
		s.observer(ev)
	}
}

// TaskStats summarizes a task's scheduling history.
type TaskStats struct {
	Released  int
	Completed int
	Dropped   int
	// Faulted counts releases suppressed by the SkipRelease fault hook.
	Faulted int
	// Spans holds (release, start, finish) triples per completed instance.
	Spans []Span
	// BusySec is the total resource time consumed.
	BusySec float64
}

// Span records one completed instance.
type Span struct {
	K                        int
	Release, Start, Finish   float64
	CPUDuration, GPUDuration float64
}

type instance struct {
	task    *Task
	k       int
	release float64
	cpu     float64
	gpu     float64
	gpuLeft float64 // remaining GPU time when sliced
	start   float64
	// phase: 0 waiting CPU, 1 running CPU, 2 waiting GPU, 3 running GPU
	phase  int
	finish float64 // completion time of the current running phase
	chunk  float64 // duration of the currently running GPU slice
}

// Sim is the discrete-event simulator.
type Sim struct {
	Cores int

	tasks   map[string]*Task
	ordered []*Task

	now        float64
	runningCPU []*instance // at most Cores entries
	runningGPU *instance
	waitCPU    []*instance
	waitGPU    []*instance

	cpuBusy float64 // core-seconds consumed
	gpuBusy float64

	observer func(TaskEvent)
}

// New creates a simulator with the given CPU core count.
func New(cores int) *Sim {
	if cores < 1 {
		cores = 1
	}
	return &Sim{Cores: cores, tasks: map[string]*Task{}}
}

// AddTask registers a task. Periodic tasks get their first release at
// Offset.
func (s *Sim) AddTask(t *Task) {
	t.next = t.Offset
	if t.Period == 0 {
		t.next = math.Inf(1)
	}
	s.tasks[t.Name] = t
	s.ordered = append(s.ordered, t)
}

// Stats returns the scheduling statistics of a task.
func (s *Sim) Stats(name string) TaskStats {
	if t, ok := s.tasks[name]; ok {
		return t.stats
	}
	return TaskStats{}
}

// Utilization returns the CPU (mean across cores) and GPU busy fractions
// over the horizon that has been simulated.
func (s *Sim) Utilization() (cpu, gpu float64) {
	if s.now <= 0 {
		return 0, 0
	}
	return s.cpuBusy / (s.now * float64(s.Cores)), s.gpuBusy / s.now
}

// Trigger releases one instance of a task at the current simulation time.
// Intended to be called from another task's OnComplete.
func (s *Sim) Trigger(name string) {
	t, ok := s.tasks[name]
	if !ok {
		return
	}
	s.release(t, s.now)
}

func (s *Sim) release(t *Task, at float64) {
	t.stats.Released++
	s.observe(TaskEvent{Task: t.Name, Kind: TaskReleased, K: t.k, T: at})
	if t.SkipRelease != nil && t.SkipRelease(t.k, at) {
		t.stats.Faulted++
		s.observe(TaskEvent{Task: t.Name, Kind: TaskFaulted, K: t.k, T: at})
		t.k++
		return
	}
	if t.DropIfBusy && (t.queued != nil || t.inFlight > 0) {
		if t.queued != nil {
			// latest wins: replace the queued (not yet started) instance
			old := t.queued
			s.removeWaiting(old)
			t.stats.Dropped++
			s.observe(TaskEvent{Task: t.Name, Kind: TaskDropped, K: old.k, T: at})
		} else {
			t.stats.Dropped++
			s.observe(TaskEvent{Task: t.Name, Kind: TaskDropped, K: t.k, T: at})
			return
		}
	}
	cpu, gpu := 0.0, 0.0
	if t.Work != nil {
		cpu, gpu = t.Work(t.k, at)
	}
	inst := &instance{task: t, k: t.k, release: at, cpu: cpu, gpu: gpu, gpuLeft: gpu}
	t.k++
	t.queued = inst
	s.waitCPU = append(s.waitCPU, inst)
}

func (s *Sim) removeWaiting(inst *instance) {
	for i, w := range s.waitCPU {
		if w == inst {
			s.waitCPU = append(s.waitCPU[:i], s.waitCPU[i+1:]...)
			inst.task.queued = nil
			return
		}
	}
}

// byPriority orders instances: higher priority first, earlier release
// first, then name for determinism.
func byPriority(a, b *instance) bool {
	if a.task.Priority != b.task.Priority {
		return a.task.Priority > b.task.Priority
	}
	if a.release != b.release {
		return a.release < b.release
	}
	return a.task.Name < b.task.Name
}

// dispatch assigns waiting instances to free resources.
func (s *Sim) dispatch() {
	// CPU
	if len(s.waitCPU) > 1 {
		sort.SliceStable(s.waitCPU, func(i, j int) bool { return byPriority(s.waitCPU[i], s.waitCPU[j]) })
	}
	for len(s.runningCPU) < s.Cores && len(s.waitCPU) > 0 {
		inst := s.waitCPU[0]
		s.waitCPU = s.waitCPU[1:]
		inst.task.queued = nil
		inst.task.inFlight++
		inst.start = s.now
		s.observe(TaskEvent{Task: inst.task.Name, Kind: taskStarted, K: inst.k, T: s.now})
		if inst.cpu <= 0 {
			// skip straight to the GPU phase
			inst.phase = 2
			s.waitGPU = append(s.waitGPU, inst)
			continue
		}
		inst.phase = 1
		inst.finish = s.now + inst.cpu
		s.runningCPU = append(s.runningCPU, inst)
	}
	// GPU
	if s.runningGPU == nil && len(s.waitGPU) > 0 {
		sort.SliceStable(s.waitGPU, func(i, j int) bool { return byPriority(s.waitGPU[i], s.waitGPU[j]) })
		inst := s.waitGPU[0]
		s.waitGPU = s.waitGPU[1:]
		if inst.gpuLeft <= 0 {
			s.complete(inst)
			// recurse: the GPU is still free
			s.dispatch()
			return
		}
		chunk := inst.gpuLeft
		if sl := inst.task.GPUSlice; sl > 0 && sl < chunk {
			chunk = sl
		}
		inst.phase = 3
		inst.chunk = chunk
		inst.finish = s.now + chunk
		s.runningGPU = inst
	}
}

func (s *Sim) complete(inst *instance) {
	t := inst.task
	t.inFlight--
	t.stats.Completed++
	t.stats.BusySec += inst.cpu + inst.gpu
	t.stats.Spans = append(t.stats.Spans, Span{
		K: inst.k, Release: inst.release, Start: inst.start, Finish: s.now,
		CPUDuration: inst.cpu, GPUDuration: inst.gpu,
	})
	s.observe(TaskEvent{
		Task: t.Name, Kind: TaskCompleted, K: inst.k, T: s.now,
		Release: inst.release, Start: inst.start, Finish: s.now,
		CPU: inst.cpu, GPU: inst.gpu,
	})
	if t.OnComplete != nil {
		t.OnComplete(inst.k, inst.release, inst.start, s.now)
	}
}

// Run advances the simulation until the given horizon (seconds).
func (s *Sim) Run(horizon float64) {
	s.dispatch()
	for {
		// find the next event time
		next := math.Inf(1)
		for _, t := range s.ordered {
			if t.next < next {
				next = t.next
			}
		}
		for _, inst := range s.runningCPU {
			if inst.finish < next {
				next = inst.finish
			}
		}
		if s.runningGPU != nil && s.runningGPU.finish < next {
			next = s.runningGPU.finish
		}
		if next > horizon || math.IsInf(next, 1) {
			s.now = horizon
			return
		}
		s.now = next
		// completions first
		kept := s.runningCPU[:0]
		var cpuDone []*instance
		for _, inst := range s.runningCPU {
			if inst.finish <= s.now {
				s.cpuBusy += inst.cpu
				cpuDone = append(cpuDone, inst)
			} else {
				kept = append(kept, inst)
			}
		}
		s.runningCPU = kept
		for _, inst := range cpuDone {
			if inst.gpu > 0 {
				inst.phase = 2
				s.waitGPU = append(s.waitGPU, inst)
			} else {
				s.complete(inst)
			}
		}
		if s.runningGPU != nil && s.runningGPU.finish <= s.now {
			inst := s.runningGPU
			s.runningGPU = nil
			s.gpuBusy += inst.chunk
			inst.gpuLeft -= inst.chunk
			if inst.gpuLeft > 1e-12 {
				// sliced phase: rejoin the GPU queue so higher-priority
				// work can interleave
				inst.phase = 2
				s.waitGPU = append(s.waitGPU, inst)
			} else {
				s.complete(inst)
			}
		}
		// periodic releases due now
		for _, t := range s.ordered {
			for t.next <= s.now {
				s.release(t, t.next)
				t.next += t.Period
				if t.Period <= 0 {
					t.next = math.Inf(1)
					break
				}
			}
		}
		s.dispatch()
	}
}

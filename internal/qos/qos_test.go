package qos

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"illixr/internal/parallel"
	"illixr/internal/telemetry"
)

func testConfig(totalWorkers int) Config {
	return Config{
		Seed:         42,
		TotalWorkers: totalWorkers,
		BudgetUs:     8333, // 120 Hz vsync
		DampEpochs:   3,
		Kernels: []KernelSpec{
			{ID: "reprojection", Weight: 3, MinWorkers: 1},
			{ID: "hologram", Weight: 2, Knobs: []KnobSpec{
				{Name: "iterations", Full: 10, Floor: 2, Step: 2},
			}},
			{ID: "imgproc", Weight: 2, Knobs: []KnobSpec{
				{Name: "pyramid_levels", Full: 3, Floor: 1, Step: 1},
			}},
			{ID: "ssim", Weight: 1, Knobs: []KnobSpec{
				{Name: "stride", Full: 1, Floor: 4, Step: 1},
			}},
			{ID: "audio", Weight: 1},
		},
	}
}

// syntheticTrace generates a seeded, integer-only stats trace: a load
// wave that pushes hologram and imgproc hot in the middle third and
// cools everything at the end.
func syntheticTrace(seed uint64, epochs int) [][]KernelStats {
	kernels := []string{"reprojection", "hologram", "imgproc", "ssim", "audio"}
	out := make([][]KernelStats, epochs)
	s := seed
	for e := 0; e < epochs; e++ {
		row := make([]KernelStats, 0, len(kernels))
		for _, k := range kernels {
			base := int64(2000 + splitmix64(&s)%2000) // 2-4 ms
			misses := 0
			frames := 120
			if e > epochs/3 && e < 2*epochs/3 && (k == "hologram" || k == "imgproc") {
				base += 9000 // blow the 8.333 ms budget
				misses = int(splitmix64(&s) % 20)
			}
			row = append(row, KernelStats{Kernel: k, Frames: frames, Misses: misses, P99Us: base})
		}
		out[e] = row
	}
	return out
}

// TestControllerDeterminism drives identical seeded signal traces
// through controllers whose decisions are applied to pools of 1, 2, 4,
// and 7 workers — with real batched kernel work executing on the pool
// between epochs — and requires the decision logs to be byte-identical
// and the fingerprints equal: the pool's actual concurrency must never
// leak into the knob schedule.
func TestControllerDeterminism(t *testing.T) {
	const epochs = 60
	trace := syntheticTrace(7, epochs)

	var logs [][]byte
	var prints []uint64
	for _, workers := range []int{1, 2, 4, 7} {
		cfg := testConfig(8)
		c, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool := parallel.New(workers)
		b := NewBatcher(pool)
		var mu sync.Mutex
		ran := 0
		for e := 0; e < epochs; e++ {
			// real concurrent work on the pool, size varying by epoch
			for s := uint64(0); s < uint64(3+e%4); s++ {
				b.Submit("hologram", s, func() {
					mu.Lock()
					ran++
					mu.Unlock()
				})
			}
			b.Flush()
			d := c.Step(trace[e])
			// apply the split to the shared pool as live mode would
			pool.SetWorkers(d.Workers["reprojection"])
		}
		if got := c.Violations(); got != 0 {
			t.Fatalf("workers=%d: %d invariant violations", workers, got)
		}
		if ran == 0 {
			t.Fatalf("workers=%d: no batched work ran", workers)
		}
		logs = append(logs, c.LogBytes())
		prints = append(prints, c.LogFingerprint())
	}
	for i := 1; i < len(logs); i++ {
		if !bytes.Equal(logs[0], logs[i]) {
			t.Fatalf("decision log differs between worker counts 1 and %d", []int{1, 2, 4, 7}[i])
		}
		if prints[0] != prints[i] {
			t.Fatalf("fingerprint differs: %x vs %x", prints[0], prints[i])
		}
	}
	if len(logs[0]) == 0 {
		t.Fatal("empty decision log")
	}
}

// TestKnobBoundsAndHysteresis holds the hologram kernel hot forever and
// then cold forever: knobs must never leave [Full, Floor], must never
// move faster than the damping window, and must fully restore.
func TestKnobBoundsAndHysteresis(t *testing.T) {
	cfg := testConfig(8)
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := []KernelStats{{Kernel: "hologram", Frames: 120, Misses: 60, P99Us: 20000}}
	cold := []KernelStats{{Kernel: "hologram", Frames: 120, Misses: 0, P99Us: 1000}}

	lastChange := -10
	prev, _ := c.Knob("hologram", "iterations")
	for e := 0; e < 40; e++ {
		c.Step(hot)
		v, ok := c.Knob("hologram", "iterations")
		if !ok {
			t.Fatal("knob disappeared")
		}
		if v < 2 || v > 10 {
			t.Fatalf("epoch %d: iterations %d outside [2,10]", e, v)
		}
		if v != prev {
			if e-lastChange < cfg.DampEpochs {
				t.Fatalf("epoch %d: knob moved %d epochs after previous move (damp=%d)",
					e, e-lastChange, cfg.DampEpochs)
			}
			if v > prev {
				t.Fatalf("epoch %d: knob restored under sustained pressure", e)
			}
			lastChange, prev = e, v
		}
	}
	if prev != 2 {
		t.Fatalf("sustained pressure did not reach the floor: iterations=%d", prev)
	}

	for e := 0; e < 80; e++ {
		c.Step(cold)
		v, _ := c.Knob("hologram", "iterations")
		if v < 2 || v > 10 {
			t.Fatalf("cold epoch %d: iterations %d outside [2,10]", e, v)
		}
		if v < prev {
			t.Fatalf("cold epoch %d: knob degraded without pressure", e)
		}
		prev = v
	}
	if prev != 10 {
		t.Fatalf("sustained idle did not restore full quality: iterations=%d", prev)
	}
	if c.Violations() != 0 {
		t.Fatalf("%d invariant violations", c.Violations())
	}
}

// TestOscillatingSignalIsDamped flips the pressure every epoch; the
// hysteresis streaks must keep every knob pinned at full quality.
func TestOscillatingSignalIsDamped(t *testing.T) {
	c, err := NewController(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	hot := []KernelStats{{Kernel: "hologram", Frames: 120, Misses: 60, P99Us: 20000}}
	cold := []KernelStats{{Kernel: "hologram", Frames: 120, Misses: 0, P99Us: 1000}}
	for e := 0; e < 50; e++ {
		if e%2 == 0 {
			c.Step(hot)
		} else {
			c.Step(cold)
		}
		if v, _ := c.Knob("hologram", "iterations"); v != 10 {
			t.Fatalf("epoch %d: alternating signal moved the knob to %d", e, v)
		}
	}
}

// TestWorkerReallocation starves reprojection and verifies workers flow
// to it — bounded per epoch, never below any MinWorkers floor, always
// summing to the total.
func TestWorkerReallocation(t *testing.T) {
	cfg := testConfig(8)
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := []KernelStats{
		{Kernel: "reprojection", Frames: 120, Misses: 100, P99Us: 25000},
		{Kernel: "hologram", Frames: 120, P99Us: 500},
		{Kernel: "imgproc", Frames: 30, P99Us: 500},
		{Kernel: "ssim", Frames: 30, P99Us: 500},
		{Kernel: "audio", Frames: 47, P99Us: 500},
	}
	prevW := c.Workers("reprojection")
	for e := 0; e < 30; e++ {
		d := c.Step(stats)
		sum := 0
		for _, w := range d.Workers {
			sum += w
		}
		if sum != cfg.TotalWorkers {
			t.Fatalf("epoch %d: worker sum %d != %d", e, sum, cfg.TotalWorkers)
		}
		for _, spec := range cfg.Kernels {
			min := spec.MinWorkers
			if min <= 0 {
				min = 1
			}
			if d.Workers[spec.ID] < min {
				t.Fatalf("epoch %d: %s below MinWorkers: %d", e, spec.ID, d.Workers[spec.ID])
			}
		}
		w := d.Workers["reprojection"]
		if w < prevW {
			t.Fatalf("epoch %d: workers moved away from the starved kernel", e)
		}
		if w-prevW > cfg.MaxWorkerMoves+1 { // +1: config default resolution
			t.Fatalf("epoch %d: moved %d workers in one epoch", e, w-prevW)
		}
		prevW = w
	}
	if prevW <= 3 {
		t.Fatalf("starved kernel never gained workers: %d", prevW)
	}
	if c.Violations() != 0 {
		t.Fatalf("%d invariant violations", c.Violations())
	}
}

func TestApportion(t *testing.T) {
	got := apportion([]int64{3, 1}, []int{1, 1}, 8)
	if got[0]+got[1] != 8 || got[0] != 6 {
		t.Fatalf("apportion = %v", got)
	}
	// mins must be honored even when demand says otherwise
	got = apportion([]int64{100, 1, 1}, []int{1, 2, 2}, 6)
	if got[0]+got[1]+got[2] != 6 || got[1] < 2 || got[2] < 2 {
		t.Fatalf("apportion with mins = %v", got)
	}
}

// TestBatcherOrdering checks the documented semantics: per-session
// arrival order preserved, every submitted item runs exactly once.
func TestBatcherOrdering(t *testing.T) {
	pool := parallel.New(4)
	b := NewBatcher(pool)
	var mu sync.Mutex
	got := map[uint64][]int{}
	const sessions, perSession = 8, 16
	for i := 0; i < perSession; i++ {
		for s := uint64(0); s < sessions; s++ {
			s, i := s, i
			b.Submit("reprojection", s, func() {
				mu.Lock()
				got[s] = append(got[s], i)
				mu.Unlock()
			})
		}
	}
	if n := b.Flush(); n != sessions*perSession {
		t.Fatalf("flushed %d items, want %d", n, sessions*perSession)
	}
	for s := uint64(0); s < sessions; s++ {
		if len(got[s]) != perSession {
			t.Fatalf("session %d ran %d items", s, len(got[s]))
		}
		for i, v := range got[s] {
			if v != i {
				t.Fatalf("session %d: out-of-order execution %v", s, got[s])
			}
		}
	}
	if b.Flush() != 0 {
		t.Fatal("second flush re-ran work")
	}
}

// TestRegistryTap feeds a histogram through two windows and checks the
// diffed frame counts, p99, and miss counts.
func TestRegistryTap(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("illixr_reprojection_latency_ms")
	miss := reg.Counter("illixr_reprojection_miss_total")

	tap := NewRegistryTap(reg, []TapStage{
		{Kernel: "reprojection", Histogram: "illixr_reprojection_latency_ms",
			Misses: "illixr_reprojection_miss_total"},
	})

	for i := 0; i < 100; i++ {
		h.Observe(2.0) // 2 ms
	}
	for i := 0; i < 5; i++ {
		h.Observe(16.0) // outlier tail
	}
	miss.Add(3)

	stats := tap.Sample(nil)
	if len(stats) != 1 {
		t.Fatalf("stats len %d", len(stats))
	}
	s := stats[0]
	if s.Frames != 105 || s.Misses != 3 {
		t.Fatalf("window 1: frames=%d misses=%d", s.Frames, s.Misses)
	}
	// p99 rank 104 of 105 lands in the 16 ms outlier's bucket
	if s.P99Us < 12000 || s.P99Us > 20000 {
		t.Fatalf("window 1 p99 = %dus", s.P99Us)
	}

	// second window: only fast frames → p99 near 2 ms, misses reset
	for i := 0; i < 50; i++ {
		h.Observe(2.0)
	}
	stats = tap.Sample(stats)
	s = stats[0]
	if s.Frames != 50 || s.Misses != 0 {
		t.Fatalf("window 2: frames=%d misses=%d", s.Frames, s.Misses)
	}
	if s.P99Us < 1500 || s.P99Us > 2600 {
		t.Fatalf("window 2 p99 = %dus", s.P99Us)
	}

	// empty window
	stats = tap.Sample(stats)
	if stats[0].Frames != 0 || stats[0].P99Us != 0 {
		t.Fatalf("empty window: %+v", stats[0])
	}
}

// TestControllerTelemetry verifies the satellite metric names land in
// the registry exposition.
func TestControllerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewController(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	c.Instrument(reg)
	c.Step([]KernelStats{{Kernel: "hologram", Frames: 120, Misses: 7, P99Us: 20000}})

	snap := reg.Snapshot()
	if snap.Counters["illixr_qos_epochs_total"] != 1 {
		t.Fatalf("epochs_total = %d", snap.Counters["illixr_qos_epochs_total"])
	}
	if snap.Counters["illixr_qos_deadline_miss_total"] != 7 {
		t.Fatalf("deadline_miss_total = %d", snap.Counters["illixr_qos_deadline_miss_total"])
	}
	if _, ok := snap.Gauges["illixr_qos_workers_reprojection"]; !ok {
		t.Fatal("missing workers gauge")
	}
	if _, ok := snap.Gauges["illixr_qos_knob_hologram_iterations"]; !ok {
		t.Fatal("missing knob gauge")
	}
}

// TestPoolSetWorkersDeterminism resizes a pool mid-stream and checks a
// tiled sum stays bitwise identical to the serial result.
func TestPoolSetWorkersDeterminism(t *testing.T) {
	n := 10_000
	data := make([]float64, n)
	s := uint64(99)
	for i := range data {
		data[i] = float64(splitmix64(&s)%1000) / 7
	}
	sumRange := func(lo, hi int) float64 {
		v := 0.0
		for i := lo; i < hi; i++ {
			v += data[i]
		}
		return v
	}
	var serial *parallel.Pool
	want := serial.SumTiles("t", n, 128, sumRange)

	p := parallel.New(1)
	for _, w := range []int{4, 1, 7, 2, 256, 3} {
		p.SetWorkers(w)
		if got := p.SumTiles("t", n, 128, sumRange); got != want {
			t.Fatalf("workers=%d: sum %v != serial %v", w, got, want)
		}
	}
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", p.Workers())
	}
	p.SetWorkers(0)
	if p.Workers() != 1 {
		t.Fatalf("SetWorkers(0) did not clamp to 1: %d", p.Workers())
	}
}

// LogBytes returns the retained log as one newline-joined blob — the
// byte-identical artifact the determinism tests compare.
func (c *Controller) LogBytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strings.Join(c.log, "\n"))
}

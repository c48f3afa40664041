package qos

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"illixr/internal/parallel"
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
// through controllers beside pools of 1, 2, 4, and 7 workers — with
// real batched kernel work executing on the pool between epochs — and
// requires the decision logs to be byte-identical and the fingerprints
// equal: the pool's actual concurrency must never leak into the knob
// schedule.
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
			c.Step(trace[e])
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

// TestDecisionFingerprintPinned pins the decision log of a two-kernel,
// four-worker controller over a fixed stats script to a literal
// fingerprint, so any change to the decision path shows here first.
func TestDecisionFingerprintPinned(t *testing.T) {
	c, err := NewController(Config{
		Seed:         1,
		TotalWorkers: 4,
		BudgetUs:     8333, // 120 Hz vsync
		Kernels: []KernelSpec{
			{ID: "imgproc", Weight: 2, Knobs: []KnobSpec{{Name: "pyramid_levels", Full: 3, Floor: 1}}},
			{ID: "ssim", Weight: 1, Knobs: []KnobSpec{{Name: "stride", Full: 1, Floor: 4}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 60; e++ {
		// imgproc runs hot for 25 epochs, then both kernels go cold
		img, misses := int64(3000), 0
		if e >= 5 && e < 30 {
			img, misses = 12000+int64(e)*100, 3
		}
		c.Step([]KernelStats{
			{Kernel: "imgproc", Frames: 6, Misses: misses, P99Us: img},
			{Kernel: "ssim", Frames: 6, P99Us: 1000},
		})
	}
	if got := c.LogFingerprint(); got != 0x089c4279f42179ac {
		t.Errorf("decision fingerprint %016x, pinned 089c4279f42179ac", got)
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

// LogBytes returns the retained log as one newline-joined blob — the
// byte-identical artifact the determinism tests compare.
func (c *Controller) LogBytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strings.Join(c.log, "\n"))
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"illixr/internal/testutil"
)

func TestSpanLineageWalkBack(t *testing.T) {
	c := NewSpanCollector(0)
	imu := c.Emit("imu", 0, 0.000, 0.001)
	cam := c.Emit("camera", 0, 0.010, 0.012)
	vio := c.Emit("vio", cam.Trace, 0.012, 0.030, cam.Span)
	pose := c.Emit("integrator", imu.Trace, 0.031, 0.032, imu.Span, vio.Span)
	warp := c.Emit("reprojection", pose.Trace, 0.040, 0.041, pose.Span)
	disp := c.Emit("display", warp.Trace, 0.041, 0.0416, warp.Span)

	if imu.Trace == 0 || imu.Trace == cam.Trace {
		t.Fatal("roots must start distinct traces")
	}
	if vio.Trace != cam.Trace {
		t.Fatal("children must inherit the parent trace")
	}

	lin := c.Lineage(disp.Span)
	names := map[string]bool{}
	for _, s := range lin {
		names[s.Name] = true
	}
	for _, want := range []string{"display", "reprojection", "integrator", "vio", "camera", "imu"} {
		if !names[want] {
			t.Errorf("lineage missing %q: %v", want, names)
		}
	}
	if lin[0].Name != "display" {
		t.Errorf("lineage must start at the queried span, got %q", lin[0].Name)
	}
}

func TestSpanCollectorCap(t *testing.T) {
	c := NewSpanCollector(3)
	for i := 0; i < 5; i++ {
		c.Emit("s", 0, float64(i), float64(i)+0.5)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", c.Dropped())
	}
}

func TestSpanEmitSkipsZeroParents(t *testing.T) {
	c := NewSpanCollector(0)
	ref := c.Emit("x", 0, 0, 1, 0, 0)
	sp, ok := c.Get(ref.Span)
	if !ok {
		t.Fatal("span not retained")
	}
	if len(sp.Parents) != 0 {
		t.Fatalf("zero parents must be skipped, got %v", sp.Parents)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewSpanCollector(0)
	cam := c.Emit("camera", 0, 0.010, 0.012)
	c.Emit("vio", cam.Trace, 0.012, 0.030, cam.Span)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var complete, flowStart, flowEnd int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "s":
			flowStart++
		case "f":
			flowEnd++
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if flowStart != 1 || flowEnd != 1 {
		t.Errorf("flow events = %d/%d, want 1/1 (one causal edge)", flowStart, flowEnd)
	}
}

// fig2Spans emits the integrated run's lineage (DESIGN.md §7): two
// sensor roots, an integrator span with two parents, and the display
// chain behind it.
func fig2Spans() (*SpanCollector, SpanID) {
	c := NewSpanCollector(0)
	imu := c.Emit("imu", 0, 0.000, 0.001)
	cam := c.Emit("camera", 0, 0.010, 0.012)
	vio := c.Emit("vio", cam.Trace, 0.012, 0.030, cam.Span)
	pose := c.Emit("integrator", imu.Trace, 0.031, 0.032, imu.Span, 0, vio.Span)
	warp := c.Emit("reprojection", pose.Trace, 0.040, 0.041, pose.Span)
	disp := c.Emit("display", warp.Trace, 0.041, 0.0416, warp.Span)
	return c, disp.Span
}

// The slab is an allocation strategy, not a format change: the lineage
// walk and the Chrome export are byte-identical to the fixtures written
// by the slice-per-span Emit it replaced.
func TestSpanExportsGolden(t *testing.T) {
	c, disp := fig2Spans()
	lin, err := json.Marshal(c.Lineage(disp))
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoldenBytes(t, "testdata/fig2_lineage.golden.json", lin)
	var chrome bytes.Buffer
	if err := c.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoldenBytes(t, "testdata/fig2_chrome.golden.json", chrome.Bytes())
}

// A retained span's Parents is a full-capacity window of the slab: a
// caller appending to it gets a fresh array, never the next span's ids.
func TestSpanParentsDoNotAlias(t *testing.T) {
	c := NewSpanCollector(0)
	a := c.Emit("a", 1, 0, 1, 11, 12)
	b := c.Emit("b", 1, 1, 2, 21)
	sa, _ := c.Get(a.Span)
	if len(sa.Parents) != cap(sa.Parents) {
		t.Fatalf("Parents has spare capacity: len %d cap %d", len(sa.Parents), cap(sa.Parents))
	}
	_ = append(sa.Parents, 99)
	if sb, _ := c.Get(b.Span); len(sb.Parents) != 1 || sb.Parents[0] != 21 {
		t.Fatalf("appending to one span's Parents rewrote its neighbour's: %v", sb.Parents)
	}
}

// At the cap Emit drops the span before building anything for it.
func TestZeroAllocSpanEmitAtCap(t *testing.T) {
	c := NewSpanCollector(4)
	for i := 0; i < 4; i++ {
		c.Emit("s", 1, 0, 1, 7)
	}
	testutil.MustZeroAllocs(t, "Emit at the cap", func() { c.Emit("s", 1, 0, 1, 7, 9) })
	if c.Len() != 4 || c.Dropped() == 0 {
		t.Fatalf("Len=%d Dropped=%d, want 4 retained and the rest dropped", c.Len(), c.Dropped())
	}
}

// Below the cap the only allocations are the geometric growth of the
// span slice and the slab blocks.
func TestZeroAllocSpanEmitAmortised(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	const n = 100_000 // warm-up plus one measured run stay under defaultSpanCap
	c := NewSpanCollector(0)
	perEmit := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			c.Emit("s", 1, 0, 1, SpanID(i+1))
		}
	}) / n
	if c.Dropped() != 0 {
		t.Fatalf("the measured run hit the cap: %d dropped", c.Dropped())
	}
	if perEmit > 0.01 {
		t.Fatalf("%.4f allocs/Emit below the cap, want <= 0.01", perEmit)
	}
}

// Concurrent emitters: the id is drawn under the lock that appends the
// span, so the store stays in ascending id order — the order Get and
// Lineage binary-search — and both answer exactly what a map kept beside
// the collector says. Run with -race -count=20 (scripts/check.sh does).
func TestConcurrentEmitKeepsIDOrder(t *testing.T) {
	const workers, perWorker = 8, 10_000
	c := NewSpanCollector(0)
	c.SetIDBase(1 << 40) // a raised floor, as the offload ends use
	roots := make([]SpanID, 16)
	for i := range roots {
		roots[i] = c.Emit("root", 0, 0, 1).Span
	}
	type rec struct {
		id      SpanID
		parents []SpanID
	}
	out := make([][]rec, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			own := out[w][:0]
			pick := func() SpanID { // a root, an earlier span of ours, or none
				switch k := rng.IntN(4); {
				case k == 0 || len(own) == 0:
					return roots[rng.IntN(len(roots))]
				case k == 3:
					return 0
				default:
					return own[rng.IntN(len(own))].id
				}
			}
			for i := 0; i < perWorker; i++ {
				ps := make([]SpanID, rng.IntN(3))
				for j := range ps {
					ps[j] = pick()
				}
				ref := c.Emit("s", 1, float64(i), float64(i), ps...)
				own = append(own, rec{ref.Span, ps})
			}
			out[w] = own
		}()
	}
	wg.Wait()

	parents := map[SpanID][]SpanID{}
	for _, r := range roots {
		parents[r] = nil
	}
	for _, own := range out {
		for _, r := range own {
			var kept []SpanID
			for _, p := range r.parents {
				if p != 0 {
					kept = append(kept, p)
				}
			}
			parents[r.id] = kept
		}
	}
	spans := c.Spans()
	if len(spans) != len(parents) {
		t.Fatalf("%d spans retained, %d emitted", len(spans), len(parents))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("spans[%d].ID %d after %d: not ascending", i, spans[i].ID, spans[i-1].ID)
		}
	}
	for id, ps := range parents {
		sp, ok := c.Get(id)
		if !ok || sp.ID != id || !slices.Equal(sp.Parents, ps) {
			t.Fatalf("Get(%d) = %+v, %v; want parents %v", id, sp, ok, ps)
		}
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("Get found an id below the floor")
	}

	// the reference walk: the same breadth-first order over the map
	lineage := func(id SpanID) []SpanID {
		var ids []SpanID
		seen := map[SpanID]bool{}
		for queue := []SpanID{id}; len(queue) > 0; queue = queue[1:] {
			cur := queue[0]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			ids = append(ids, cur)
			queue = append(queue, parents[cur]...)
		}
		return ids
	}
	rng := rand.New(rand.NewPCG(99, 1))
	for n := 0; n < 500; n++ {
		own := out[rng.IntN(workers)]
		id := own[rng.IntN(len(own))].id
		var got []SpanID
		for _, sp := range c.Lineage(id) {
			got = append(got, sp.ID)
		}
		if want := lineage(id); !slices.Equal(got, want) {
			t.Fatalf("Lineage(%d) = %v, reference %v", id, got, want)
		}
	}
}

// Past the cap a drop takes no lock: concurrent emitters and SetIDBase
// callers racing it must still get unique ids, count every span exactly
// once as retained or dropped, keep the retained ones in id order, and
// never see the floor lowered. Run with -race.
func TestEmitPastCapIsLockFreeAndExact(t *testing.T) {
	const workers, perWorker, limit = 8, 5_000, 1_000
	c := NewSpanCollector(limit)
	ids := make([][]SpanID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := make([]SpanID, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				if i%1000 == 999 {
					// a lower floor must never take effect; a higher one may
					c.SetIDBase(uint64(w * i))
				}
				ref := c.Emit("s", 0, 0, 1, 7)
				if ref.Trace != TraceID(ref.Span) {
					t.Errorf("a root span's trace %d is not its id %d", ref.Trace, ref.Span)
				}
				own = append(own, ref.Span)
			}
			ids[w] = own
		}()
	}
	wg.Wait()
	seen := map[SpanID]bool{}
	for _, own := range ids {
		for _, id := range own {
			if seen[id] {
				t.Fatalf("span id %d handed out twice", id)
			}
			seen[id] = true
		}
	}
	if got := uint64(c.Len()) + c.Dropped(); got != workers*perWorker {
		t.Fatalf("Len %d + Dropped %d = %d, want %d emitted", c.Len(), c.Dropped(), got, workers*perWorker)
	}
	if c.Len() != limit {
		t.Fatalf("Len %d, want the cap %d", c.Len(), limit)
	}
	spans := c.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("spans[%d].ID %d after %d: not ascending", i, spans[i].ID, spans[i-1].ID)
		}
	}
	last := c.Emit("s", 0, 0, 1).Span
	c.SetIDBase(1)
	if next := c.Emit("s", 0, 0, 1).Span; next != last+1 {
		t.Fatalf("after SetIDBase(1) the next id is %d, want %d", next, last+1)
	}
	c.SetIDBase(1 << 40)
	if next := c.Emit("s", 0, 0, 1).Span; next != 1<<40+1 {
		t.Fatalf("after SetIDBase(1<<40) the next id is %d, want %d", next, uint64(1<<40+1))
	}
}

func benchEmit(b *testing.B, c *SpanCollector) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Emit("net_uplink", 1, 0, 0, SpanID(i+1))
	}
}

// BenchmarkSpanEmit prices one single-parent Emit (the per-frame span of
// the offload path) while spans are retained and after the cap, and
// after the cap with every core emitting into one collector.
func BenchmarkSpanEmit(b *testing.B) {
	b.Run("below_cap", func(b *testing.B) { benchEmit(b, NewSpanCollector(b.N+1)) })
	b.Run("at_cap", func(b *testing.B) { benchEmit(b, NewSpanCollector(1)) })
	b.Run("at_cap_parallel", func(b *testing.B) {
		c := NewSpanCollector(1)
		c.Emit("net_uplink", 1, 0, 0)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Emit("net_uplink", 1, 0, 0, 7)
			}
		})
	})
}

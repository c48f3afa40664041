package stitch

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

// threeNodeDumps builds the canonical federated pipeline: a client IMU
// root, gateway uplink relay, replica compute, gateway downlink relay,
// client display — three collectors on disjoint id bases, exactly as the
// live client/gateway/replica allocate them.
func threeNodeDumps(t *testing.T) ([]Dump, telemetry.SpanID, float64, float64) {
	t.Helper()
	client := telemetry.NewSpanCollector(0)
	gateway := telemetry.NewSpanCollector(0)
	replica := telemetry.NewSpanCollector(0)
	gateway.SetIDBase(1 << 62)
	replica.SetIDBase(1 << 40)

	imu := client.Emit("imu", 0, 0.000, 0.001)                                   // client root
	gwUp := gateway.Emit("gw_uplink", imu.Trace, 0.002, 0.002, imu.Span)         // hop 1
	netUp := replica.Emit("net_uplink", imu.Trace, 0.003, 0.003, gwUp.Span)      // hop 2
	integ := replica.Emit("integrator", imu.Trace, 0.003, 0.006, netUp.Span)     // compute
	gwDown := gateway.Emit("gw_downlink", imu.Trace, 0.007, 0.007, integ.Span)   // hop 3
	netDown := client.Emit("net_downlink", imu.Trace, 0.008, 0.008, gwDown.Span) // hop 4
	display := client.Emit("display", imu.Trace, 0.009, 0.012, netDown.Span)     // photon

	dumps := []Dump{
		CollectorDump("client", client),
		CollectorDump("gateway", gateway),
		CollectorDump("replica", replica),
	}
	return dumps, display.Span, 0.000, 0.012 // root start, display end
}

func TestStitchThreeNodeLineage(t *testing.T) {
	dumps, display, _, _ := threeNodeDumps(t)
	tr, err := Stitch(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7 {
		t.Fatalf("stitched %d spans, want 7", tr.Len())
	}
	lin := tr.Lineage(display)
	if len(lin) != 7 {
		t.Fatalf("lineage has %d spans, want 7: %+v", len(lin), lin)
	}
	// lineage must cross all three nodes and end at the client IMU root
	nodes := map[string]bool{}
	for _, s := range lin {
		nodes[s.Node] = true
	}
	for _, n := range []string{"client", "gateway", "replica"} {
		if !nodes[n] {
			t.Errorf("lineage never visits node %q", n)
		}
	}
	if root := lin[len(lin)-1]; root.Name != "imu" || root.Node != "client" {
		t.Errorf("lineage root = %s on %s, want imu on client", root.Name, root.Node)
	}
}

func TestStitchRejectsIDCollision(t *testing.T) {
	a := telemetry.NewSpanCollector(0)
	b := telemetry.NewSpanCollector(0) // same id range: violates the contract
	a.Emit("x", 0, 0, 1)
	b.Emit("y", 0, 0, 1)
	_, err := Stitch(CollectorDump("a", a), CollectorDump("b", b))
	if err == nil {
		t.Fatal("stitching colliding id ranges must fail")
	}
}

func TestStitchChromeTraceProcessesPerNode(t *testing.T) {
	dumps, _, _, _ := threeNodeDumps(t)
	tr, err := Stitch(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		SpanCount int      `json:"spanCount"`
		Nodes     []string `json:"nodes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.SpanCount != 7 || len(doc.Nodes) != 3 {
		t.Fatalf("spanCount=%d nodes=%v", doc.SpanCount, doc.Nodes)
	}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" && ev.Ph == "M" {
			procs[ev.Pid] = ev.Args["name"].(string)
		}
	}
	if len(procs) != 3 {
		t.Fatalf("want 3 process_name metadata events, got %v", procs)
	}
}

// TestStitchConcurrentDumps exercises the federation path under the race
// detector: three collectors written from separate goroutines, dumped
// and stitched for as long as emission lasts (and at least ten times).
// Each emitter has a fixed budget, so the work is bounded: emitters that
// spun until the dumps were done made every dump copy however far
// emission had run ahead (1 s or ~110 s under -race).
func TestStitchConcurrentDumps(t *testing.T) {
	const perEmitter = 1 << 12
	cols := []*telemetry.SpanCollector{
		telemetry.NewSpanCollector(0),
		telemetry.NewSpanCollector(0),
		telemetry.NewSpanCollector(0),
	}
	cols[1].SetIDBase(1 << 40)
	cols[2].SetIDBase(1 << 62)
	var wg sync.WaitGroup
	for _, c := range cols {
		wg.Add(1)
		go func(c *telemetry.SpanCollector) {
			defer wg.Done()
			for j := 0; j < perEmitter; j++ {
				c.Emit("stage", 0, float64(j), float64(j)+0.5)
			}
		}(c)
	}
	emitted := make(chan struct{})
	go func() { wg.Wait(); close(emitted) }()
	for k, emitting := 0, true; emitting || k < 10; k++ {
		if _, err := Stitch(
			CollectorDump("a", cols[0]),
			CollectorDump("b", cols[1]),
			CollectorDump("c", cols[2])); err != nil {
			t.Fatal(err)
		}
		select {
		case <-emitted:
			emitting = false
		default:
		}
	}
}

// The three-node federation pinned byte for byte: the raw dumps as the
// /spans?format=raw endpoint serialises them, and the stitched Chrome
// trace. Collector-internal storage of Parents must never show here.
func TestStitchThreeNodeGolden(t *testing.T) {
	dumps, _, _, _ := threeNodeDumps(t)
	raw, err := json.Marshal(dumps)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoldenBytes(t, "testdata/three_node_dumps.golden.json", raw)
	tr, err := Stitch(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoldenBytes(t, "testdata/three_node_chrome.golden.json", chrome.Bytes())
}

// Len returns the number of stitched spans.
func (t *Trace) Len() int { return len(t.spans) }

// Lineage walks a span's ancestry breadth-first across node boundaries:
// the cross-node generalization of SpanCollector.Lineage. The first
// element is the span itself; parents missing from every dump (dropped
// at a collector cap, or a node not federated) are silently skipped.
func (t *Trace) Lineage(id telemetry.SpanID) []nodeSpan {
	var out []nodeSpan
	seen := map[telemetry.SpanID]bool{}
	queue := []telemetry.SpanID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		i, ok := t.index[cur]
		if !ok {
			continue
		}
		sp := t.spans[i]
		out = append(out, sp)
		queue = append(queue, sp.Parents...)
	}
	return out
}

// Package stitch merges span dumps from multiple nodes into one causal
// cross-node trace (DESIGN.md §12). The wire protocol carries trace refs
// in every frame header and each node's SpanCollector allocates ids from
// a disjoint range (SpanCollector.SetIDBase: the client keeps the low
// range, each replica session takes sessionID<<40, the gateway takes
// GatewayIDBase) — so spans from different processes stitch together by
// id with no translation, and a single display frame's lineage walks
// from the client's IMU root through the gateway relay and the replica's
// integrator back to the client photon.
//
// The package is deliberately offline: it consumes Dumps (the
// /spans?format=raw federation payload) and produces a merged Trace with
// lineage walks, per-hop MTP attribution, and a multi-process Chrome
// trace export. Nothing here touches the network; the gateway's /spans
// handler does the fetching and feeds the dumps in.
package stitch

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"illixr/internal/telemetry"
)

// Dump is one node's span dump: the unit of trace federation. The Node
// name becomes the process name in the merged Chrome trace; Dropped
// carries the source collector's overflow count so a stitched trace can
// report whether any input was truncated.
type Dump struct {
	Node    string           `json:"node"`
	Dropped uint64           `json:"dropped"`
	Spans   []telemetry.Span `json:"spans"`
}

// CollectorDump snapshots a collector under a node name.
func CollectorDump(node string, c *telemetry.SpanCollector) Dump {
	return Dump{Node: node, Dropped: c.Dropped(), Spans: c.Spans()}
}

// nodeSpan is a span annotated with the node it was collected on.
type nodeSpan struct {
	telemetry.Span
	Node string `json:"node"`
}

// Trace is a stitched multi-node trace.
type Trace struct {
	// Nodes lists the contributing node names in dump order.
	Nodes []string
	// Dropped is the total overflow count across the input dumps: when
	// nonzero, some lineages are incomplete.
	Dropped uint64

	spans []nodeSpan
	index map[telemetry.SpanID]int
}

// Stitch merges dumps into one trace. Span ids must be globally unique —
// a collision between nodes means the id-base partitioning contract was
// violated (two collectors allocating from the same range), and the
// merge fails loudly rather than silently corrupting lineage.
func Stitch(dumps ...Dump) (*Trace, error) {
	t := &Trace{index: map[telemetry.SpanID]int{}}
	for _, d := range dumps {
		t.Nodes = append(t.Nodes, d.Node)
		t.Dropped += d.Dropped
		for _, s := range d.Spans {
			if prev, dup := t.index[s.ID]; dup {
				return nil, fmt.Errorf("stitch: span id %#x emitted by both %q and %q (id-base ranges overlap)",
					uint64(s.ID), t.spans[prev].Node, d.Node)
			}
			t.index[s.ID] = len(t.spans)
			t.spans = append(t.spans, nodeSpan{Span: s, Node: d.Node})
		}
	}
	return t, nil
}

// chrome trace_event types, multi-process: one pid per node, one tid per
// stage name within that node. Mirrors telemetry.WriteChromeTrace but
// renders node boundaries as process boundaries so a stitched trace
// reads as "three machines, one timeline" in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	SpanCount       int           `json:"spanCount"`
	SpansDropped    uint64        `json:"spansDropped"`
	Nodes           []string      `json:"nodes"`
}

// WriteChromeTrace exports the stitched trace as Chrome trace_event
// JSON: one process per node (process_name metadata), one thread row per
// stage within each node, complete events for spans, and flow event
// pairs for every causal edge — including the cross-node ones, which is
// the point.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	pid := map[string]int{}
	for i, n := range t.Nodes {
		if _, ok := pid[n]; !ok {
			pid[n] = i + 1
		}
	}
	// stable tid per (node, stage)
	type row struct {
		node, stage string
	}
	rows := map[row]bool{}
	for _, s := range t.spans {
		rows[row{s.Node, s.Name}] = true
	}
	ordered := make([]row, 0, len(rows))
	for r := range rows {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].node != ordered[j].node {
			return pid[ordered[i].node] < pid[ordered[j].node]
		}
		return ordered[i].stage < ordered[j].stage
	})
	tid := map[row]int{}
	next := map[string]int{}
	for _, r := range ordered {
		next[r.node]++
		tid[r] = next[r.node]
	}

	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{},
		SpanCount: len(t.spans), SpansDropped: t.Dropped, Nodes: append([]string{}, t.Nodes...)}
	nodeNames := make([]string, 0, len(pid))
	for n := range pid {
		nodeNames = append(nodeNames, n)
	}
	sort.Slice(nodeNames, func(i, j int) bool { return pid[nodeNames[i]] < pid[nodeNames[j]] })
	for _, n := range nodeNames {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid[n],
			Args: map[string]any{"name": n},
		})
	}
	for _, r := range ordered {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: pid[r.node], Tid: tid[r],
			Args: map[string]any{"name": r.stage},
		})
	}
	var flowID uint64
	for _, s := range t.spans {
		dur := (s.End - s.Start) * 1e6
		if dur < 0 {
			dur = 0
		}
		d := dur
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: "illixr", Ph: "X",
			Ts: s.Start * 1e6, Dur: &d, Pid: pid[s.Node], Tid: tid[row{s.Node, s.Name}],
			Args: map[string]any{"span": uint64(s.ID), "trace": uint64(s.Trace), "node": s.Node},
		})
		for _, p := range s.Parents {
			j, ok := t.index[p]
			if !ok {
				continue
			}
			ps := t.spans[j]
			flowID++
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "lineage", Cat: "illixr", Ph: "s",
				Ts: ps.End * 1e6, Pid: pid[ps.Node], Tid: tid[row{ps.Node, ps.Name}], ID: flowID,
			})
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "lineage", Cat: "illixr", Ph: "f", BP: "e",
				Ts: s.Start * 1e6, Pid: pid[s.Node], Tid: tid[row{s.Node, s.Name}], ID: flowID,
			})
		}
	}
	return json.NewEncoder(w).Encode(tr)
}

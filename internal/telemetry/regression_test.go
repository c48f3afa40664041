package telemetry

// Regression tests for the observability PR's satellite fixes: Summarize
// on empty/corrupt input and Table.Render on ragged rows.

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSummarizeEmptyIsZero(t *testing.T) {
	for _, in := range [][]float64{nil, {}} {
		s := Summarize(in)
		if s != (Summary{}) {
			t.Fatalf("Summarize(%v) = %+v, want zero Summary", in, s)
		}
		for _, v := range []float64{s.Mean, s.Std, s.Min, s.Max, s.P99} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Summarize(%v) leaked non-finite field: %+v", in, s)
			}
		}
	}
}

func TestSummarizeSkipsNonFinite(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3, math.Inf(1), math.Inf(-1)})
	if s.N != 2 {
		t.Fatalf("N = %d, want 2 (finite values only)", s.N)
	}
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary over finite subset wrong: %+v", s)
	}
	// all NaN/Inf degrades to the zero summary, not NaN propagation
	if got := Summarize([]float64{math.NaN(), math.Inf(1)}); got != (Summary{}) {
		t.Fatalf("all-non-finite input must summarize to zero, got %+v", got)
	}
}

func TestTableRenderRaggedRows(t *testing.T) {
	tb := &Table{
		Title:  "ragged",
		Header: []string{"a", "bb", "ccc"},
	}
	tb.AddRow("1")                  // shorter than the header
	tb.AddRow("1", "2", "3", "4x")  // longer than the header
	tb.AddRow("long-cell", "2", "") // wider than its header
	var buf bytes.Buffer
	tb.Render(&buf) // must not panic
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[1], "ccc") {
		t.Errorf("header mangled: %q", lines[1])
	}
	if !strings.Contains(out, "4x") {
		t.Error("extra cell beyond the header must still be printed")
	}
	if !strings.Contains(out, "long-cell  2") {
		t.Errorf("wide cell must stretch its column:\n%s", out)
	}
}

package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMTPSampleTotal(t *testing.T) {
	m := MTPSample{IMUAge: 1.5, Reproj: 1.2, Swap: 0.3}
	if math.Abs(m.Total()-3.0) > 1e-12 {
		t.Errorf("total = %v", m.Total())
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Mean-22) > 1e-12 {
		t.Errorf("mean %v", s.Mean)
	}
	if s.P99 < 4 || s.P99 > 100 {
		t.Errorf("p99 %v", s.P99)
	}
	if got := s.String(); !strings.Contains(got, "±") {
		t.Errorf("string %q", got)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Error("empty summary")
	}
}

func TestSeriesAppend(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(1, 10)
	s.Append(2, 20)
	if len(s.T) != 2 || s.Values[1] != 20 {
		t.Error("append broken")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
	}
	tab.AddRow("x", "1")
	tab.AddRow("longer", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4+1 { // title + header + sep + 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// alignment: header and separator same width prefix
	if !strings.HasPrefix(lines[2], "------") {
		t.Errorf("separator line %q", lines[2])
	}
}

func TestBar(t *testing.T) {
	if Bar(0.5, 10) != "#####....." {
		t.Errorf("bar = %q", Bar(0.5, 10))
	}
	if Bar(-1, 4) != "...." || Bar(2, 4) != "####" {
		t.Error("bar clamping")
	}
	f := func(frac float64) bool {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			return true
		}
		return len(Bar(frac, 20)) == 20
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

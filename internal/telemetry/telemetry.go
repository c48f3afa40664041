// Package telemetry provides ILLIXR's logging and metrics support
// (§II-C): per-frame records, motion-to-photon samples, summary
// statistics, and text/CSV emitters used by the figure and table
// generators in cmd/illixr-bench.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"illixr/internal/mathx"
)

// MTPSample is one motion-to-photon measurement, logged by the
// reprojection component every time it runs (§III-E): the age of the pose
// used, the reprojection time itself, and the wait until the frame buffer
// is accepted for display. All fields are milliseconds.
type MTPSample struct {
	T      float64 // display (vsync) time, seconds
	IMUAge float64
	Reproj float64
	Swap   float64
}

// Total returns the motion-to-photon latency in milliseconds (without
// t_display, as in the paper).
func (m MTPSample) Total() float64 { return m.IMUAge + m.Reproj + m.Swap }

// Series is a named sequence of (t, value) points, the exchange format
// for the timeline figures (Fig 4, Fig 7).
type Series struct {
	Name   string
	T      []float64
	Values []float64
}

// Append adds one point.
func (s *Series) Append(t, v float64) {
	s.T = append(s.T, t)
	s.Values = append(s.Values, v)
}

// Summary holds mean ± standard deviation plus extremes.
type Summary struct {
	Mean, Std, Min, Max, P99 float64
	N                        int
}

// Summarize computes a Summary of values. An empty slice yields the zero
// Summary, and non-finite values (NaN/±Inf) are skipped, so empty or
// partially corrupt measurement windows can never leak NaN/Inf into
// tables and CSVs.
func Summarize(values []float64) Summary {
	finite := values
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = make([]float64, 0, len(values))
			for _, x := range values {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					finite = append(finite, x)
				}
			}
			break
		}
	}
	if len(finite) == 0 {
		return Summary{}
	}
	lo, hi := mathx.Min(finite), mathx.Max(finite)
	// a running sum of nearly equal values rounds the quotient a few ulps
	// past either end; the mean of values in [lo, hi] is in [lo, hi]
	mean := math.Max(lo, math.Min(hi, mathx.Mean(finite)))
	return Summary{
		Mean: mean,
		Std:  mathx.StdDev(finite),
		Min:  lo,
		Max:  hi,
		P99:  mathx.Percentile(finite, 99),
		N:    len(finite),
	}
}

// String renders "mean±std".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.Std)
}

// Table is a simple text table renderer for the bench output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders an ASCII bar of the given fraction (0–1) and width.
func Bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// WriteFile streams one exporter (Registry.WritePrometheus,
// SpanCollector.WriteChromeTrace, a stitched trace) into path.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

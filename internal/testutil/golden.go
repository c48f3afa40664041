// Package testutil provides the golden-vector fixture layer for the
// deterministic kernel tests: fixtures are text files of hex floats (exact
// round-trip via strconv 'x' formatting) under each package's testdata/
// directory, refreshed with `go test -update`.
package testutil

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Update is set by the -update flag: golden tests rewrite their fixtures
// instead of comparing against them.
var Update = flag.Bool("update", false, "rewrite golden testdata fixtures")

// WriteGolden writes values as a text fixture: a count line followed by one
// hex-float value per line. Hex floats round-trip exactly, so the fixture
// pins results to the bit.
func WriteGolden(t *testing.T, path string, values []float64) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", len(values))
	for _, v := range values {
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatalf("golden: mkdir %s: %v", filepath.Dir(path), err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatalf("golden: write %s: %v", path, err)
	}
}

// ReadGolden loads a fixture written by WriteGolden.
func ReadGolden(t *testing.T, path string) []float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden: open %s: %v (run `go test -update` to create it)", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("golden: %s: missing count line", path)
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil {
		t.Fatalf("golden: %s: bad count line: %v", path, err)
	}
	out := make([]float64, 0, n)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatalf("golden: %s line %d: %v", path, len(out)+2, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden: read %s: %v", path, err)
	}
	if len(out) != n {
		t.Fatalf("golden: %s: header says %d values, file has %d", path, n, len(out))
	}
	return out
}

// CheckGolden compares got against the fixture at path (or rewrites the
// fixture under -update). ulps bounds the allowed distance in representable
// float64 steps: 0 demands bitwise equality.
func CheckGolden(t *testing.T, path string, got []float64, ulps uint64) {
	t.Helper()
	if *Update {
		WriteGolden(t, path, got)
		t.Logf("golden: rewrote %s (%d values)", path, len(got))
		return
	}
	want := ReadGolden(t, path)
	if len(got) != len(want) {
		t.Fatalf("golden: %s: got %d values, fixture has %d (rerun with -update after intended changes)",
			path, len(got), len(want))
	}
	bad := 0
	for i := range got {
		if d := UlpDiff64(got[i], want[i]); d > ulps {
			if bad < 5 {
				t.Errorf("golden: %s[%d]: got %v (%s), want %v (%s), ulp distance %d > %d",
					path, i,
					got[i], strconv.FormatFloat(got[i], 'x', -1, 64),
					want[i], strconv.FormatFloat(want[i], 'x', -1, 64),
					d, ulps)
			}
			bad++
		}
	}
	if bad > 5 {
		t.Errorf("golden: %s: %d further mismatches suppressed", path, bad-5)
	}
	if bad > 0 {
		t.Logf("golden: rerun with -update to accept intended numeric changes")
	}
}

// UlpDiff64 returns the distance between two float64 values in units of
// least precision. Equal values (including both NaN, or -0 vs +0... which
// differ by representation but compare equal) return 0; a NaN paired with a
// non-NaN returns the maximum distance.
func UlpDiff64(a, b float64) uint64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia := orderedBits(a)
	ib := orderedBits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// orderedBits maps float64 bits onto a monotone unsigned scale.
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

// Float32s widens a float32 slice for the float64-based fixture format
// (float32 values are exactly representable in float64, so bitwise
// comparisons carry over).
func Float32s(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// CheckGoldenBytes compares got with the fixture at path byte for byte
// (exported documents: JSON traces, dumps), rewriting it under -update.
func CheckGoldenBytes(t *testing.T, path string, got []byte) {
	t.Helper()
	if *Update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden: mkdir %s: %v", filepath.Dir(path), err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: write %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run `go test -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("golden: %s differs\n got: %s\nwant: %s", path, got, want)
	}
}

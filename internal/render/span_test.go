package render

import (
	"math"
	"math/rand"
	"testing"
)

// coveredRow is what rasterBand's pixel loop computes on row py over
// columns [x0, x1]: each pixel that passes the barycentric test, with the
// bits of its three weights. It repeats the loop's expressions in the
// loop's order.
func coveredRow(t *setupTri, py, x0, x1 int) [][4]uint64 {
	ax, bx, cx, by, cy := t.ax, t.bx, t.cx, t.by, t.cy
	dx0, dy0 := cx-bx, cy-by
	dx1, dy1 := ax-cx, t.ay-cy
	fy := float64(py) + 0.5
	e0 := dx0 * (fy - by)
	e1 := dx1 * (fy - cy)
	var out [][4]uint64
	for px := x0; px <= x1; px++ {
		fx := float64(px) + 0.5
		w0 := (e0 - dy0*(fx-bx)) * t.invArea
		w1 := (e1 - dy1*(fx-cx)) * t.invArea
		w2 := 1 - w0 - w1
		if w0 < 0 || w1 < 0 || w2 < 0 {
			continue
		}
		out = append(out, [4]uint64{uint64(px), math.Float64bits(w0), math.Float64bits(w1), math.Float64bits(w2)})
	}
	return out
}

// spanCase is one triangle of TestRowSpanIsExact, in screen pixels, and
// whether set-up must narrow its rows.
type spanCase struct {
	name   string
	v      [6]float64 // ax, ay, bx, by, cx, cy
	narrow int        // 1: must narrow, -1: must not, 0: either
}

// spanCases are the adversarial triangles on a w×h framebuffer, then n
// seeded random ones.
func spanCases(rng *rand.Rand, w, h float64, n int) []spanCase {
	var cs []spanCase
	add := func(name string, narrow int, v ...float64) {
		cs = append(cs, spanCase{name: name, v: [6]float64(v), narrow: narrow})
	}
	jit := func(s float64) float64 { return (rng.Float64() - 0.5) * s }
	for i := 0; i < 40; i++ {
		// slivers at most a pixel wide and many rows tall, steep and
		// diagonal: the triangles the span is for
		x, y := rng.Float64()*w, jit(20)
		wid := rng.Float64()
		add("vertical sliver", 0, x, y, x+wid, y+jit(2), x+jit(30), y+h+jit(20))
		x2 := math.Mod(x+20+rng.Float64()*(w-40), w) // ≥ 20 px across
		add("diagonal sliver", 1, x, -1-rng.Float64()*5, x+0.5+wid, -1-rng.Float64()*5, x2, h+1+rng.Float64()*5)
		// an edge whose height is a hair either side of spanMinDy
		for _, dy := range []float64{math.Nextafter(spanMinDy, 0), spanMinDy, math.Nextafter(spanMinDy, 2), spanMinDy - 1e-9, spanMinDy + 1e-9} {
			x, y := rng.Float64()*w/2, rng.Float64()*h
			add("|dy| at the threshold", 0, x, y, x+w/2+jit(10), y+dy, x+jit(40), y+jit(2*h))
		}
		// vertices on pixel centres and integer edge vectors: whole rows of
		// pixel centres lie on the edges, where the weights round to 0 or
		// a hair either side of it
		cx, cy := float64(rng.Intn(int(w)))+0.5, float64(rng.Intn(int(h)))+0.5
		add("edges through pixel centres", 0, cx, cy, cx+float64(rng.Intn(61)-30), cy+float64(rng.Intn(61)-30),
			cx+float64(rng.Intn(61)-30), cy+float64(rng.Intn(61)-30))
		// vertices some 1e5 px off screen, and a huge triangle whose edge
		// A→B has a height just above spanMinDy and crosses the screen at a
		// pixel centre's height: there w2 = 1 − w0 − w1 rounds the most
		add("1e5 off screen", 0, jit(2e5), jit(2e5), jit(2e5), jit(2e5), jit(2e5), jit(2e5))
		yc := float64(rng.Intn(int(h))) + 0.5 + jit(1e-3)
		dy := spanMinDy * (1 + rng.Float64()*1e-3)
		xc := rng.Float64() * w
		add("huge, near-horizontal A→B", 1, xc-1e5, yc-dy/2, xc+1e5, yc+dy/2, xc+jit(200), yc+jit(1)-1e5)
		add("huge, near-horizontal A→B", 1, xc-1e5, yc-dy/2, xc+1e5, yc+dy/2, xc+jit(200), yc+jit(1)+1e5)
		// straddling a band boundary by a fraction of a row
		yb := float64(rasterBandRows*(1+rng.Intn(int(h)/rasterBandRows-1))) + jit(1)
		add("band straddle", 0, rng.Float64()*w, yb-0.3, rng.Float64()*w, yb+0.4, rng.Float64()*w, yb+jit(6))
		// bounding boxes exactly 7 and 8 px wide: floor(10.2) .. ceil(15.7)
		// is 7 columns, .. ceil(16.7) is 8
		x, y = 10.2+float64(rng.Intn(int(w)-30)), rng.Float64()*(h-40)
		add("7 px wide", -1, x, y, x+5.5, y+30+jit(10), x+jit(0.3)+0.3, y+20)
		add("8 px wide", 1, x, y, x+6.5, y+30+jit(10), x+jit(0.3)+0.3, y+20)
	}
	for i := 0; i < n; i++ {
		s := []float64{20, w / 2, w, 1e3}[i%4]
		add("random", 0, w/2+jit(s), h/2+jit(s), w/2+jit(s), h/2+jit(s), w/2+jit(s), h/2+jit(s))
	}
	return cs
}

// TestRowSpanIsExact holds the row span to the bounding-box scan it
// replaces: on every row of every triangle, the pixels the span tests
// include every pixel the whole bounding box would shade, so rasterBand
// shades the same pixels with the same weights bit for bit. It also checks
// that the span narrows what it should, so it cannot pass by narrowing
// nothing.
func TestRowSpanIsExact(t *testing.T) {
	const w, h = 160, 90
	rng := rand.New(rand.NewSource(31))
	n := 1500
	if testing.Short() {
		n = 300
	}
	var boxTests, spanTests, narrowed int
	for _, c := range spanCases(rng, w, h, n) {
		v := c.v
		var tri setupTri
		if !tri.place(v[0], v[1], v[2], v[3], v[4], v[5], w, h) &&
			!tri.place(v[0], v[1], v[4], v[5], v[2], v[3], w, h) { // the other winding
			continue
		}
		if got := tri.spans != 0; c.narrow == 1 && !got || c.narrow == -1 && got {
			t.Fatalf("%s %v: narrowed=%v, want %v", c.name, v, got, c.narrow == 1)
		}
		if tri.spans != 0 {
			narrowed++
		}
		for py := tri.minY; py <= tri.maxY; py++ {
			lo, hi := tri.minX, tri.maxX
			if tri.spans != 0 {
				lo, hi = tri.rowSpan(float64(py) + 0.5)
			}
			box := coveredRow(&tri, py, tri.minX, tri.maxX)
			span := coveredRow(&tri, py, lo, hi)
			boxTests += tri.maxX - tri.minX + 1
			spanTests += max(hi-lo+1, 0)
			if len(span) != len(box) {
				t.Fatalf("%s %v row %d: span [%d, %d] covers %d pixels, the box %d: %v",
					c.name, v, py, lo, hi, len(span), len(box), box)
			}
			for i := range box {
				if span[i] != box[i] {
					t.Fatalf("%s %v row %d: pixel %d differs: %x vs %x", c.name, v, py, i, span[i], box[i])
				}
			}
		}
	}
	if narrowed == 0 || spanTests*2 > boxTests {
		t.Fatalf("the span narrowed %d triangles, %d of %d pixel tests left: it hardly narrows", narrowed, spanTests, boxTests)
	}
	t.Logf("%d narrowed triangles; %d of %d bounding-box pixel tests left", narrowed, spanTests, boxTests)
}

package quality

import (
	"math"
	"sync"

	"illixr/internal/imgproc"
	"illixr/internal/parallel"
)

// flip computes a perceptual difference map between a test and a reference
// RGB image following the structure of FLIP (Andersson et al. 2020): a
// contrast-sensitivity prefilter in an opponent color space, a hue-angle
// weighted color difference, and a feature (edge/point) difference on
// luminance; the two are combined as ΔE = ΔE_color^(1−ΔE_feature). The
// returned value is the mean per-pixel error in [0, 1]; Table V reports
// 1−FLIP so that 1 means identical.
//
// This is a faithful structural reimplementation rather than a bit-exact
// port (the original's CSF tables assume a calibrated display); see
// DESIGN.md.
func flip(test, ref *imgproc.RGB) float64 { return FLIPPool(nil, test, ref) }

// The FLIP stages run through pooled per-invocation contexts with
// persistent tile closures — same pattern as SSIM — so a steady-state
// FLIP call allocates nothing (DESIGN.md §10).

// oppCtx is the RGB → opponent color space transform context.
type oppCtx struct {
	im        *imgproc.RGB
	y, cx, cz *imgproc.Gray
	fn        func(lo, hi int)
}

var oppCtxPool = sync.Pool{New: func() any {
	c := &oppCtx{}
	c.fn = func(lo, hi int) {
		im, y, cx, cz := c.im, c.y, c.cx, c.cz
		for i := lo; i < hi; i++ {
			r := im.Pix[3*i]
			g := im.Pix[3*i+1]
			b := im.Pix[3*i+2]
			y.Pix[i] = 0.2126*r + 0.7152*g + 0.0722*b
			cx.Pix[i] = r - g
			cz.Pix[i] = 0.5*(r+g) - b
		}
	}
	return c
}}

// toOpponent splits an RGB image into pooled Y (achromatic), Cx
// (red-green) and Cz (blue-yellow) planes; the caller owns all three.
func toOpponent(p *parallel.Pool, im *imgproc.RGB) (y, cx, cz *imgproc.Gray) {
	y = imgproc.GetGray(im.W, im.H)
	cx = imgproc.GetGray(im.W, im.H)
	cz = imgproc.GetGray(im.W, im.H)
	c := oppCtxPool.Get().(*oppCtx)
	c.im, c.y, c.cx, c.cz = im, y, cx, cz
	p.ForTiles("flip_opponent", im.W*im.H, sumTile, c.fn)
	c.im, c.y, c.cx, c.cz = nil, nil, nil, nil
	oppCtxPool.Put(c)
	return y, cx, cz
}

// edgeCtx computes the gradient-magnitude (edge) map.
type edgeCtx struct {
	gx, gy, edge *imgproc.Gray
	fn           func(lo, hi int)
}

var edgeCtxPool = sync.Pool{New: func() any {
	c := &edgeCtx{}
	c.fn = func(lo, hi int) {
		gx, gy, edge := c.gx, c.gy, c.edge
		for i := lo; i < hi; i++ {
			edge.Pix[i] = float32(math.Hypot(float64(gx.Pix[i]), float64(gy.Pix[i])))
		}
	}
	return c
}}

// pointCtx computes the Laplacian-magnitude (point) map.
type pointCtx struct {
	y, point *imgproc.Gray
	fn       func(lo, hi int)
}

var pointCtxPool = sync.Pool{New: func() any {
	c := &pointCtx{}
	c.fn = func(lo, hi int) {
		y, point := c.y, c.point
		for yy := lo; yy < hi; yy++ {
			for xx := 0; xx < y.W; xx++ {
				lap := -4*y.At(xx, yy) + y.At(xx-1, yy) + y.At(xx+1, yy) +
					y.At(xx, yy-1) + y.At(xx, yy+1)
				point.Set(xx, yy, float32(math.Abs(float64(lap))))
			}
		}
	}
	return c
}}

// flipScoreCtx carries the ten prefiltered planes for the final reduction.
type flipScoreCtx struct {
	ty, ry, tcx, rcx, tcz, rcz   *imgproc.Gray
	tEdge, rEdge, tPoint, rPoint *imgproc.Gray
	fn                           func(lo, hi int) float64
}

var flipScoreCtxPool = sync.Pool{New: func() any {
	c := &flipScoreCtx{}
	c.fn = func(lo, hi int) float64 {
		ty, ry, tcx, rcx, tcz, rcz := c.ty, c.ry, c.tcx, c.rcx, c.tcz, c.rcz
		tEdge, rEdge, tPoint, rPoint := c.tEdge, c.rEdge, c.tPoint, c.rPoint
		s := 0.0
		for i := lo; i < hi; i++ {
			// HyAB-style color difference: city-block on luminance + Euclidean
			// on chroma.
			dy := math.Abs(float64(ty.Pix[i] - ry.Pix[i]))
			dcx := float64(tcx.Pix[i] - rcx.Pix[i])
			dcz := float64(tcz.Pix[i] - rcz.Pix[i])
			dc := dy + math.Sqrt(dcx*dcx+dcz*dcz)
			// normalize into [0,1] with a soft knee (max distance ≈ 2.4)
			colorDiff := math.Pow(clamp01(dc/1.2), 0.7)
			// feature difference
			de := math.Abs(float64(tEdge.Pix[i] - rEdge.Pix[i]))
			dp := math.Abs(float64(tPoint.Pix[i] - rPoint.Pix[i]))
			featDiff := clamp01(math.Max(de, dp) * 4)
			// FLIP combination
			e := math.Pow(colorDiff, 1-featDiff)
			if colorDiff == 0 {
				e = 0
			}
			s += e
		}
		return s
	}
	return c
}}

// FLIPPool is FLIP with the opponent transform, CSF prefilters, feature
// maps and the error reduction tiled over a worker pool; output is bitwise
// identical for every worker count (DESIGN.md §8).
func FLIPPool(p *parallel.Pool, test, ref *imgproc.RGB) float64 {
	if test.W != ref.W || test.H != ref.H {
		panic("quality: FLIP size mismatch")
	}
	// --- opponent color space + CSF prefilter ---------------------------
	ty, tcx, tcz := toOpponent(p, test)
	ry, rcx, rcz := toOpponent(p, ref)
	// CSF: achromatic channel keeps more detail (small sigma), chromatic
	// channels are filtered more aggressively. The blur returns a fresh
	// pooled image, so the unfiltered plane recycles immediately.
	filt := func(g *imgproc.Gray, sigma float64) *imgproc.Gray {
		out := imgproc.GaussianBlurPool(p, g, sigma)
		imgproc.PutGray(g)
		return out
	}
	ty, tcx, tcz = filt(ty, 0.8), filt(tcx, 1.8), filt(tcz, 2.4)
	ry, rcx, rcz = filt(ry, 0.8), filt(rcx, 1.8), filt(rcz, 2.4)

	// --- feature difference on luminance --------------------------------
	tEdge, tPoint := edgePointMaps(p, ty)
	rEdge, rPoint := edgePointMaps(p, ry)

	n := test.W * test.H
	c := flipScoreCtxPool.Get().(*flipScoreCtx)
	c.ty, c.ry, c.tcx, c.rcx, c.tcz, c.rcz = ty, ry, tcx, rcx, tcz, rcz
	c.tEdge, c.rEdge, c.tPoint, c.rPoint = tEdge, rEdge, tPoint, rPoint
	sum := p.SumTiles("flip_score", n, sumTile, c.fn)
	*c = flipScoreCtx{fn: c.fn}
	flipScoreCtxPool.Put(c)
	for _, g := range [...]*imgproc.Gray{ty, ry, tcx, rcx, tcz, rcz, tEdge, rEdge, tPoint, rPoint} {
		imgproc.PutGray(g)
	}
	return sum / float64(n)
}

// OneMinusFLIP is the similarity form reported in Table V.
func OneMinusFLIP(test, ref *imgproc.RGB) float64 { return 1 - flip(test, ref) }

// OneMinusFLIPPool is OneMinusFLIP over a worker pool.
func OneMinusFLIPPool(p *parallel.Pool, test, ref *imgproc.RGB) float64 {
	return 1 - FLIPPool(p, test, ref)
}

// edgePointMaps computes first- and second-derivative feature magnitude
// maps (edge and point detectors). Both returned maps are pooled and
// caller-owned.
func edgePointMaps(p *parallel.Pool, y *imgproc.Gray) (edge, point *imgproc.Gray) {
	gx, gy := imgproc.SobelPool(p, y)
	edge = imgproc.GetGray(y.W, y.H)
	ec := edgeCtxPool.Get().(*edgeCtx)
	ec.gx, ec.gy, ec.edge = gx, gy, edge
	p.ForTiles("flip_edge", len(edge.Pix), sumTile, ec.fn)
	ec.gx, ec.gy, ec.edge = nil, nil, nil
	edgeCtxPool.Put(ec)
	imgproc.PutGray(gx)
	imgproc.PutGray(gy)
	// point detector: Laplacian magnitude
	point = imgproc.GetGray(y.W, y.H)
	pc := pointCtxPool.Get().(*pointCtx)
	pc.y, pc.point = y, point
	p.ForTiles("flip_point", y.H, 16, pc.fn)
	pc.y, pc.point = nil, nil
	pointCtxPool.Put(pc)
	return edge, point
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

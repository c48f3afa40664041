// Package quality implements ILLIXR's quality-of-experience metrics
// (§II-C): SSIM and FLIP for image quality (Table V) and absolute/relative
// trajectory error for head-tracking accuracy (§V-E).
package quality

import (
	"sync"

	"illixr/internal/imgproc"
	"illixr/internal/parallel"
)

// sumTile is the fixed tile size (in pixels) for the per-pixel score
// reductions of SSIM and FLIP. Tile partials are summed sequentially in
// pixel order and folded in ascending tile order, so the mean is
// order-stable: independent of worker count, and identical between the
// serial and parallel paths (DESIGN.md §8).
const sumTile = 8192

// ssimCtx carries one SSIM invocation's intermediate images so the score
// closure is built once and reused — per-call closure literals would heap
// allocate on every frame (DESIGN.md §10).
type ssimCtx struct {
	muA, muB, sAA, sBB, sAB *imgproc.Gray
	fn                      func(lo, hi int) float64
}

var ssimCtxPool = sync.Pool{New: func() any {
	c := &ssimCtx{}
	c.fn = func(lo, hi int) float64 {
		const c1 = 0.01 * 0.01
		const c2 = 0.03 * 0.03
		muA, muB, sAA, sBB, sAB := c.muA, c.muB, c.sAA, c.sBB, c.sAB
		s := 0.0
		for i := lo; i < hi; i++ {
			ma := float64(muA.Pix[i])
			mb := float64(muB.Pix[i])
			varA := float64(sAA.Pix[i]) - ma*ma
			varB := float64(sBB.Pix[i]) - mb*mb
			covAB := float64(sAB.Pix[i]) - ma*mb
			num := (2*ma*mb + c1) * (2*covAB + c2)
			den := (ma*ma + mb*mb + c1) * (varA + varB + c2)
			s += num / den
		}
		return s
	}
	return c
}}

// SSIMPool computes the mean Structural Similarity Index between two
// same-sized grayscale images (Wang et al. 2004), using an 11×11 Gaussian
// window with σ=1.5 and the standard constants for a [0,1] dynamic range.
// The windows and the score reduction are tiled over a worker pool (nil =
// serial); output is bitwise identical for every worker count.
// All intermediates cycle through the image pools, so steady-state calls
// allocate nothing.
func SSIMPool(p *parallel.Pool, a, b *imgproc.Gray) float64 {
	if a.W != b.W || a.H != b.H {
		panic("quality: SSIM size mismatch")
	}
	// Gaussian-filtered moments
	muA := imgproc.GaussianBlurPool(p, a, 1.5)
	muB := imgproc.GaussianBlurPool(p, b, 1.5)
	aa := mulImg(p, a, a)
	bb := mulImg(p, b, b)
	ab := mulImg(p, a, b)
	sAA := imgproc.GaussianBlurPool(p, aa, 1.5)
	sBB := imgproc.GaussianBlurPool(p, bb, 1.5)
	sAB := imgproc.GaussianBlurPool(p, ab, 1.5)
	imgproc.PutGray(aa)
	imgproc.PutGray(bb)
	imgproc.PutGray(ab)
	n := a.W * a.H
	c := ssimCtxPool.Get().(*ssimCtx)
	c.muA, c.muB, c.sAA, c.sBB, c.sAB = muA, muB, sAA, sBB, sAB
	sum := p.SumTiles("ssim_score", n, sumTile, c.fn)
	c.muA, c.muB, c.sAA, c.sBB, c.sAB = nil, nil, nil, nil, nil
	ssimCtxPool.Put(c)
	imgproc.PutGray(muA)
	imgproc.PutGray(muB)
	imgproc.PutGray(sAA)
	imgproc.PutGray(sBB)
	imgproc.PutGray(sAB)
	return sum / float64(n)
}

// SSIMRGB computes SSIM on the luminance of two RGB images.
func SSIMRGB(a, b *imgproc.RGB) float64 { return SSIMRGBPool(nil, a, b) }

// SSIMRGBPool is SSIMRGB over a worker pool.
func SSIMRGBPool(p *parallel.Pool, a, b *imgproc.RGB) float64 {
	la := a.Luminance()
	lb := b.Luminance()
	s := SSIMPool(p, la, lb)
	imgproc.PutGray(la)
	imgproc.PutGray(lb)
	return s
}

// mulCtx carries one elementwise-product invocation for the persistent
// tile closure.
type mulCtx struct {
	a, b, out *imgproc.Gray
	fn        func(lo, hi int)
}

var mulCtxPool = sync.Pool{New: func() any {
	c := &mulCtx{}
	c.fn = func(lo, hi int) {
		a, b, out := c.a, c.b, c.out
		for i := lo; i < hi; i++ {
			out.Pix[i] = a.Pix[i] * b.Pix[i]
		}
	}
	return c
}}

func mulImg(p *parallel.Pool, a, b *imgproc.Gray) *imgproc.Gray {
	out := imgproc.GetGray(a.W, a.H)
	c := mulCtxPool.Get().(*mulCtx)
	c.a, c.b, c.out = a, b, out
	p.ForTiles("ssim_mul", len(out.Pix), sumTile, c.fn)
	c.a, c.b, c.out = nil, nil, nil
	mulCtxPool.Put(c)
	return out
}

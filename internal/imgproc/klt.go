package imgproc

import (
	"math"

	"illixr/internal/recycle"
)

// KLTParams configures the pyramidal Lucas-Kanade tracker.
type KLTParams struct {
	WindowRadius  int     // half-size of the tracking window
	MaxIterations int     // Gauss-Newton iterations per level
	Epsilon       float64 // convergence threshold on the update norm (pixels)
	PyramidLevels int
	MaxResidual   float64 // mean absolute residual above which a track is rejected
}

// DefaultKLTParams mirrors typical VIO front-end settings.
func DefaultKLTParams() KLTParams {
	return KLTParams{
		WindowRadius:  7,
		MaxIterations: 15,
		Epsilon:       0.01,
		PyramidLevels: 3,
		MaxResidual:   0.08,
	}
}

// TrackResult is the outcome of tracking one point.
type TrackResult struct {
	X, Y     float64 // location in the new image
	OK       bool
	Residual float64 // mean absolute photometric residual at convergence
}

// KLTTrack tracks points from prev to next using pyramidal Lucas-Kanade.
// pts are (x, y) positions in prev; the returned slice is parallel to pts.
func KLTTrack(prev, next *Pyramid, pts [][2]float64, p KLTParams) []TrackResult {
	if len(prev.Levels) != len(next.Levels) {
		panic("imgproc: pyramid level mismatch")
	}
	levels := len(prev.Levels)
	if p.PyramidLevels < levels {
		levels = p.PyramidLevels
	}
	if levels < 1 {
		levels = 1
	}
	out := make([]TrackResult, len(pts))
	for i, pt := range pts {
		out[i] = trackOne(prev, next, pt[0], pt[1], levels, p)
	}
	return out
}

func trackOne(prev, next *Pyramid, x, y float64, levels int, p KLTParams) TrackResult {
	scale := math.Pow(2, float64(levels-1))
	// guess starts at the same location on the coarsest level
	gx := x / scale
	gy := y / scale
	var residual float64
	for lvl := levels - 1; lvl >= 0; lvl-- {
		pImg := prev.Levels[lvl]
		nImg := next.Levels[lvl]
		lx := x / math.Pow(2, float64(lvl))
		ly := y / math.Pow(2, float64(lvl))
		nx, ny, res, ok := lkRefine(pImg, nImg, lx, ly, gx, gy, p)
		if !ok {
			// On coarse levels the window may simply not fit; carry the
			// guess down. Only the finest level is allowed to veto.
			if lvl == 0 {
				return TrackResult{OK: false}
			}
		} else {
			gx, gy, residual = nx, ny, res
		}
		if lvl > 0 {
			gx *= 2
			gy *= 2
		}
	}
	if residual > p.MaxResidual {
		return TrackResult{X: gx, Y: gy, OK: false, Residual: residual}
	}
	return TrackResult{X: gx, Y: gy, OK: true, Residual: residual}
}

// lkRefine runs iterative Lucas-Kanade at one pyramid level. (sx, sy) is
// the point in the source image; (tx, ty) the current estimate in the
// target image.
func lkRefine(src, dst *Gray, sx, sy, tx, ty float64, p KLTParams) (outX, outY, residual float64, ok bool) {
	r := p.WindowRadius
	if !src.inBounds(sx, sy, r+1) {
		return 0, 0, 0, false
	}
	n := (2*r + 1) * (2*r + 1)
	// The window scratch recycles through the shared pools: every element
	// is overwritten before use, so pooling cannot change a track.
	tvals := recycle.F32.Get(n)
	gxs := recycle.F64.Get(n)
	gys := recycle.F64.Get(n)
	outX, outY, residual, ok = lkRefineBuf(src, dst, sx, sy, tx, ty, p, tvals, gxs, gys)
	recycle.F32.Put(tvals)
	recycle.F64.Put(gxs)
	recycle.F64.Put(gys)
	return outX, outY, residual, ok
}

// lkRefineBuf is lkRefine's body with caller-provided window scratch.
func lkRefineBuf(src, dst *Gray, sx, sy, tx, ty float64, p KLTParams, tvals []float32, gxs, gys []float64) (outX, outY, residual float64, ok bool) {
	r := p.WindowRadius
	n := len(tvals)
	// Precompute template values and gradients at the source location.
	var a11, a12, a22 float64
	idx := 0
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			px := sx + float64(dx)
			py := sy + float64(dy)
			tvals[idx] = src.bilinear(px, py)
			// central-difference gradient on the source image
			gx := 0.5 * float64(src.bilinear(px+1, py)-src.bilinear(px-1, py))
			gy := 0.5 * float64(src.bilinear(px, py+1)-src.bilinear(px, py-1))
			gxs[idx] = gx
			gys[idx] = gy
			a11 += gx * gx
			a12 += gx * gy
			a22 += gy * gy
			idx++
		}
	}
	det := a11*a22 - a12*a12
	if det < 1e-12 {
		return 0, 0, 0, false // untrackable (flat or aperture)
	}
	inv11 := a22 / det
	inv12 := -a12 / det
	inv22 := a11 / det
	for iter := 0; iter < p.MaxIterations; iter++ {
		if !dst.inBounds(tx, ty, r+1) {
			return 0, 0, 0, false
		}
		var b1, b2, resSum float64
		idx = 0
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				diff := float64(dst.bilinear(tx+float64(dx), ty+float64(dy)) - tvals[idx])
				b1 += diff * gxs[idx]
				b2 += diff * gys[idx]
				resSum += math.Abs(diff)
				idx++
			}
		}
		ux := inv11*b1 + inv12*b2
		uy := inv12*b1 + inv22*b2
		tx -= ux
		ty -= uy
		residual = resSum / float64(n)
		if math.Hypot(ux, uy) < p.Epsilon {
			break
		}
	}
	if !dst.inBounds(tx, ty, r+1) {
		return 0, 0, 0, false
	}
	return tx, ty, residual, true
}

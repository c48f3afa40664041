// Package audio implements ILLIXR's audio pipeline (Table II): ambisonic
// encoding of mono sources into a higher-order-ambisonics (HOA)
// soundfield, and playback — psychoacoustic filtering, pose-driven
// soundfield rotation and zoom, and HRTF binauralization — mirroring
// libspatialaudio's processing structure (Table VII).
package audio

import (
	"math"
	"sync"

	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/recycle"
)

// ACN channel count for a given ambisonic order.
func channelCount(order int) int { return (order + 1) * (order + 1) }

// direction is a unit vector pointing from the listener toward the source
// (world frame: X forward, Y left, Z up).
type direction = mathx.Vec3

// DirectionFromAzEl builds a direction from azimuth (rad, counterclockwise
// from +X) and elevation (rad, up from the horizontal plane).
func DirectionFromAzEl(az, el float64) direction {
	ce := math.Cos(el)
	return direction{X: ce * math.Cos(az), Y: ce * math.Sin(az), Z: math.Sin(el)}
}

// encodeSH evaluates the real spherical harmonics up to the given order in
// ACN channel ordering with SN3D normalization (the ambiX convention used
// by libspatialaudio) for a unit direction.
func encodeSH(order int, d direction) []float64 {
	out := make([]float64, channelCount(order))
	encodeSHInto(order, d, out)
	return out
}

// encodeSHInto is encodeSH writing into a caller-provided buffer of length
// channelCount(order), allocating nothing.
func encodeSHInto(order int, d direction, out []float64) {
	if len(out) < channelCount(order) {
		panic("audio: EncodeSHInto buffer too short")
	}
	x, y, z := d.X, d.Y, d.Z
	// order 0
	out[0] = 1
	if order >= 1 {
		// ACN 1..3 = (Y, Z, X) with SN3D
		out[1] = y
		out[2] = z
		out[3] = x
	}
	if order >= 2 {
		// SN3D second order
		s3 := math.Sqrt(3) / 2
		out[4] = 2 * s3 * x * y
		out[5] = 2 * s3 * y * z
		out[6] = 0.5 * (3*z*z - 1)
		out[7] = 2 * s3 * x * z
		out[8] = s3 * (x*x - y*y)
	}
	if order >= 3 {
		// SN3D third order
		s58 := math.Sqrt(5.0 / 8.0)
		s158 := math.Sqrt(15.0) / 2
		s38 := math.Sqrt(3.0 / 8.0)
		out[9] = s58 * y * (3*x*x - y*y)
		out[10] = s158 * 2 * x * y * z
		out[11] = s38 * y * (5*z*z - 1)
		out[12] = 0.5 * z * (5*z*z - 3)
		out[13] = s38 * x * (5*z*z - 1)
		out[14] = s158 * z * (x*x - y*y)
		out[15] = s58 * x * (x*x - 3*y*y)
	}
}

// shRotation is a block-diagonal rotation of SH coefficients, one matrix
// per band, computed with the Ivanic–Ruedenberg recursion.
type shRotation struct {
	Order int
	Bands []*mathx.Mat // Bands[l] is (2l+1)×(2l+1)
}

// newSHRotation builds the SH-domain rotation corresponding to the spatial
// rotation q (the rotation that maps source directions d to q.Rotate(d)).
func newSHRotation(order int, q mathx.Quat) *shRotation {
	rot := &shRotation{Order: order, Bands: make([]*mathx.Mat, order+1)}
	rot.Bands[0] = mathx.Eye(1)
	for l := 1; l <= order; l++ {
		rot.Bands[l] = mathx.NewMat(2*l+1, 2*l+1)
	}
	rot.setQuat(q)
	return rot
}

// setQuat recomputes the rotation in place for a new spatial rotation q,
// reusing the band matrices. The per-block playback path keeps one
// shRotation alive and re-targets it with the listener pose each block.
func (rot *shRotation) setQuat(q mathx.Quat) {
	if rot.Order == 0 {
		return
	}
	r := q.RotationMatrix()
	// band 1 in ACN ordering (Y, Z, X): R1[a][b] = R[sigma(a)][sigma(b)],
	// sigma = (y, z, x) axis indices.
	sigma := [3]int{1, 2, 0}
	r1 := rot.Bands[1]
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			r1.Set(a, b, r.At(sigma[a], sigma[b]))
		}
	}
	for l := 2; l <= rot.Order; l++ {
		irBandInto(l, r1, rot.Bands[l-1], rot.Bands[l])
	}
}

// irBandInto computes the band-l rotation from the band-1 and band-(l-1)
// rotations (Ivanic & Ruedenberg 1996, with the 1998 erratum), writing
// every entry of the preallocated (2l+1)×(2l+1) out matrix.
func irBandInto(l int, r1, prev, out *mathx.Mat) {
	// helper P_i(l; a, b)
	p := func(i, a, b int) float64 {
		ri := func(m, n int) float64 { return r1.At(m+1, n+1) }
		rp := func(m, n int) float64 { return prev.At(m+l-1, n+l-1) }
		switch {
		case b == l:
			return ri(i, 1)*rp(a, l-1) - ri(i, -1)*rp(a, -l+1)
		case b == -l:
			return ri(i, 1)*rp(a, -l+1) + ri(i, -1)*rp(a, l-1)
		default:
			return ri(i, 0) * rp(a, b)
		}
	}
	delta := func(a, b int) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	for m := -l; m <= l; m++ {
		for n := -l; n <= l; n++ {
			var denom float64
			if abs(n) == l {
				denom = float64(2*l) * float64(2*l-1)
			} else {
				denom = float64(l+n) * float64(l-n)
			}
			u := math.Sqrt(float64(l+m) * float64(l-m) / denom)
			d := delta(m, 0)
			am := abs(m)
			v := 0.5 * math.Sqrt((1+d)*float64(l+am-1)*float64(l+am)/denom) * (1 - 2*d)
			w := -0.5 * math.Sqrt(float64(l-am-1)*float64(l-am)/denom) * (1 - d)

			var uu, vv, ww float64
			if u != 0 {
				uu = p(0, m, n)
			}
			if v != 0 {
				switch {
				case m == 0:
					vv = p(1, 1, n) + p(-1, -1, n)
				case m > 0:
					vv = p(1, m-1, n)*math.Sqrt(1+delta(m, 1)) -
						p(-1, -m+1, n)*(1-delta(m, 1))
				default:
					vv = p(1, m+1, n)*(1-delta(m, -1)) +
						p(-1, -m-1, n)*math.Sqrt(1+delta(m, -1))
				}
			}
			if w != 0 {
				switch {
				case m == 0:
					ww = 0
				case m > 0:
					ww = p(1, m+1, n) + p(-1, -m-1, n)
				default:
					ww = p(1, m-1, n) - p(-1, -m+1, n)
				}
			}
			out.Set(m+l, n+l, u*uu+v*vv+w*ww)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// applyWith rotates a full ACN coefficient vector in place, using
// caller-provided per-band scratch of length at least 2*Order+1.
func (r *shRotation) applyWith(coeffs, scratch []float64) {
	if len(coeffs) < channelCount(r.Order) {
		panic("audio: coefficient vector too short for rotation order")
	}
	idx := 0
	for l := 0; l <= r.Order; l++ {
		size := 2*l + 1
		band := coeffs[idx : idx+size]
		rotated := scratch[:size]
		r.Bands[l].MulVecNInto(rotated, band)
		copy(band, rotated)
		idx += size
	}
}

// rotBlockCtx carries one block rotation for the persistent tile closure.
// Each tile draws its own coefficient and band scratch from the shared
// pool, so concurrent tiles never share mutable state.
type rotBlockCtx struct {
	r     *shRotation
	block [][]float64
	fn    func(lo, hi int)
}

var rotBlockCtxPool = sync.Pool{New: func() any {
	c := &rotBlockCtx{}
	c.fn = func(lo, hi int) {
		r, block := c.r, c.block
		nCh := channelCount(r.Order)
		coeffs := recycle.F64.Get(nCh)
		scratch := recycle.F64.Get(2*r.Order + 1)
		for s := lo; s < hi; s++ {
			for ch := 0; ch < nCh; ch++ {
				coeffs[ch] = block[ch][s]
			}
			r.applyWith(coeffs, scratch)
			for ch := 0; ch < nCh; ch++ {
				block[ch][s] = coeffs[ch]
			}
		}
		recycle.F64.Put(scratch)
		recycle.F64.Put(coeffs)
	}
	return c
}}

// applyBlockPool rotates every sample of a multichannel block (channels ×
// samples) in place, with samples tiled over a worker pool. Each
// tile uses its own coefficient scratch vector and every sample column is
// independent, so the rotated block is bitwise identical for every worker
// count.
func (r *shRotation) applyBlockPool(pool *parallel.Pool, block [][]float64) {
	nCh := channelCount(r.Order)
	if len(block) < nCh {
		panic("audio: block has too few channels for rotation order")
	}
	n := len(block[0])
	c := rotBlockCtxPool.Get().(*rotBlockCtx)
	c.r, c.block = r, block
	pool.ForTiles("audio_rotate", n, audioTile, c.fn)
	c.r, c.block = nil, nil
	rotBlockCtxPool.Put(c)
}

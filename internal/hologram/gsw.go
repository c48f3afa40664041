// Package hologram implements ILLIXR's adaptive-display component
// (Table II): computational holography with the weighted Gerchberg–Saxton
// (GSW) algorithm of Persson et al., generating an SLM phase pattern that
// focuses light onto a set of 3D focal points across multiple depth
// planes. The three tasks of Table VII map directly onto the methods here:
// hologram-to-depth propagation (per-pixel transcendentals + reduction),
// the partial-sum reduction, and depth-to-hologram back-propagation.
package hologram

import (
	"math"
	"math/cmplx"
	"sync"

	"illixr/internal/parallel"
	"illixr/internal/recycle"
)

// Spot is one target focal point in SLM tangent space: lateral position
// (x, y) in meters on the focal plane, and depth offset z in meters.
type Spot struct {
	X, Y, Z float64
	// Intensity is the desired relative intensity (default 1).
	Intensity float64
}

// Params configures the hologram computation.
type Params struct {
	Width, Height int     // SLM resolution
	PixelPitch    float64 // meters
	Wavelength    float64 // meters
	FocalLength   float64 // meters
	Iterations    int     // GSW iterations
	// Workers is the data-parallel worker count (0 or 1 = serial). The
	// per-spot pixel sums always use the fixed-tile ordered reduction of
	// internal/parallel, so the result is bitwise identical for every
	// worker count (DESIGN.md §8).
	Workers int
}

// holoTile is the fixed pixel-tile size for the per-spot sums and the
// phase back-propagation.
const holoTile = 4096

// DefaultParams models a small SLM; benchmarks scale Width/Height up to
// the paper's 2560×1440 display frames.
func DefaultParams() Params {
	return Params{
		Width: 256, Height: 256,
		PixelPitch:  8e-6,
		Wavelength:  532e-9,
		FocalLength: 0.2,
		Iterations:  5,
	}
}

// Stats records the algorithmic work of one hologram generation.
type Stats struct {
	PixelSpotOps int // transcendental evaluations (pixels × spots × passes)
	Iterations   int
}

// Result is the generated hologram. Phase and SpotAmplitude come from the
// recycle pools; a Result nobody puts back is simply garbage-collected.
type Result struct {
	Phase []float64 // per-pixel SLM phase in [-π, π]
	// SpotAmplitude is |V_m| for each target after the final iteration.
	SpotAmplitude []float64
	// Uniformity = min|V|/max|V| — the GSW quality metric.
	Uniformity float64
	// Efficiency = Σ|V_m|² (relative diffraction efficiency).
	Efficiency float64
	Stats      Stats
}

// deltaPhase computes Δ_mj: the phase a pixel j contributes toward spot m
// (lens + prism terms of the standard GSW formulation).
func deltaPhase(p Params, px, py int, s Spot) float64 {
	x := (float64(px) - float64(p.Width)/2) * p.PixelPitch
	y := (float64(py) - float64(p.Height)/2) * p.PixelPitch
	prism := 2 * math.Pi / (p.Wavelength * p.FocalLength) * (x*s.X + y*s.Y)
	lens := math.Pi * s.Z / (p.Wavelength * p.FocalLength * p.FocalLength) * (x*x + y*y)
	return prism + lens
}

// Generate runs weighted Gerchberg–Saxton and returns the SLM phase.
func Generate(p Params, spots []Spot) Result {
	var pool *parallel.Pool
	if p.Workers > 1 {
		pool = parallel.New(p.Workers)
		defer pool.Close()
	}
	return GeneratePool(pool, p, spots)
}

// gswCtx carries one GSW invocation's state so the three tile kernels are
// built once per context and reused; closure literals at the ForTiles call
// sites would heap-allocate on every frame (DESIGN.md §10).
type gswCtx struct {
	p       Params
	spot    Spot
	dm      []float64   // current spot's Δ_mj row
	phase   []float64   // SLM phase being iterated
	delta   [][]float64 // all Δ_mj rows (reused backing array)
	theta   []float64
	weights []float64
	m       int

	deltaFn func(lo, hi int)
	spotFn  func(lo, hi int) (re, im float64)
	phaseFn func(lo, hi int)
}

var gswCtxPool = sync.Pool{New: func() any {
	c := &gswCtx{}
	c.deltaFn = func(lo, hi int) {
		p, dm, s := c.p, c.dm, c.spot
		for j := lo; j < hi; j++ {
			dm[j] = deltaPhase(p, j%p.Width, j/p.Width, s)
		}
	}
	c.spotFn = func(lo, hi int) (re, im float64) {
		phase, dm := c.phase, c.dm
		for j := lo; j < hi; j++ {
			s, cv := math.Sincos(phase[j] - dm[j])
			re += cv
			im += s
		}
		return re, im
	}
	c.phaseFn = func(lo, hi int) {
		phase, delta, theta, weights, m := c.phase, c.delta, c.theta, c.weights, c.m
		for j := lo; j < hi; j++ {
			var re, im float64
			for mi := 0; mi < m; mi++ {
				s, cv := math.Sincos(delta[mi][j] + theta[mi])
				re += weights[mi] * cv
				im += weights[mi] * s
			}
			phase[j] = math.Atan2(im, re)
		}
	}
	return c
}}

// spotField computes Σ_j exp(i(φ_j − Δ_mj)) for spot dm via the fixed-tile
// ordered reduction, so the sum is order-stable for every worker count.
func (c *gswCtx) spotField(pool *parallel.Pool, kernel string, dm []float64, n int) (re, im float64) {
	c.dm = dm
	return pool.SumTiles2(kernel, n, holoTile, c.spotFn)
}

// GeneratePool is Generate over a caller-supplied worker pool (nil = serial;
// the result is bitwise identical for every worker count).
func GeneratePool(pool *parallel.Pool, p Params, spots []Spot) Result {
	n := p.Width * p.Height
	m := len(spots)
	if m == 0 || n == 0 {
		return Result{Phase: make([]float64, n), SpotAmplitude: make([]float64, m)}
	}
	res := Result{
		Phase:         recycle.F64.Get(n),
		SpotAmplitude: recycle.F64.Get(m),
	}
	c := gswCtxPool.Get().(*gswCtx)
	c.p = p
	c.phase = res.Phase
	c.m = m
	// Precompute Δ_mj. For the realistic sizes used here (n up to ~4M,
	// m tens) this is the dominant memory object, mirroring the
	// "globally dense accesses to hologram phases" of Table VII. The rows
	// recycle through the shared float64 pool.
	c.delta = c.delta[:0]
	for mi := 0; mi < m; mi++ {
		dm := recycle.F64.Get(n)
		c.dm, c.spot = dm, spots[mi]
		pool.ForTiles("hologram_delta", n, holoTile, c.deltaFn)
		c.delta = append(c.delta, dm)
	}
	weights := recycle.F64.Get(m)
	for i := range weights {
		w := spots[i].Intensity
		if w <= 0 {
			w = 1
		}
		weights[i] = w
	}
	// initial phase: superposition with zero spot phases
	theta := recycle.F64.Get(m)
	amp := recycle.F64.Get(m)
	c.theta, c.weights = theta, weights
	for it := 0; it < p.Iterations; it++ {
		// Task 1: hologram-to-depth. V_m = (1/N) Σ_j exp(i(φ_j − Δ_mj)).
		for mi := 0; mi < m; mi++ {
			re, im := c.spotField(pool, "hologram_spot", c.delta[mi], n)
			res.Stats.PixelSpotOps += n
			// Task 2: sum (the reduction epilogue)
			v := complex(re/float64(n), im/float64(n))
			amp[mi] = cmplx.Abs(v)
			theta[mi] = cmplx.Phase(v)
		}
		// GSW weight update: boost dim spots
		mean := 0.0
		for _, a := range amp {
			mean += a
		}
		mean /= float64(m)
		for mi := range weights {
			if amp[mi] > 1e-12 {
				weights[mi] *= mean / amp[mi]
			}
		}
		// Task 3: depth-to-hologram. φ_j = arg Σ_m w_m exp(i(Δ_mj + θ_m)).
		// Each pixel is independent (disjoint writes), so this tiles
		// trivially; the inner spot sum stays sequential per pixel.
		pool.ForTiles("hologram_phase", n, holoTile, c.phaseFn)
		res.Stats.PixelSpotOps += n * m
		res.Stats.Iterations++
	}
	// final forward pass for quality metrics
	minA, maxA := math.Inf(1), 0.0
	eff := 0.0
	for mi := 0; mi < m; mi++ {
		re, im := c.spotField(pool, "hologram_spot", c.delta[mi], n)
		res.Stats.PixelSpotOps += n
		a := math.Hypot(re, im) / float64(n)
		res.SpotAmplitude[mi] = a
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
		eff += a * a
	}
	if maxA > 0 {
		res.Uniformity = minA / maxA
	}
	res.Efficiency = eff
	for mi := range c.delta {
		recycle.F64.Put(c.delta[mi])
		c.delta[mi] = nil
	}
	c.delta = c.delta[:0]
	recycle.F64.Put(weights)
	recycle.F64.Put(theta)
	recycle.F64.Put(amp)
	c.dm, c.phase, c.theta, c.weights = nil, nil, nil, nil
	c.p, c.spot, c.m = Params{}, Spot{}, 0
	gswCtxPool.Put(c)
	return res
}

// SpotsFromDepthPlanes lays out a grid of focal points across nPlanes
// depth planes — the multi-focal-plane display drive of §II-A.
func SpotsFromDepthPlanes(nPlanes, perPlane int, lateralExtent, depthExtent float64) []Spot {
	var out []Spot
	if nPlanes < 1 || perPlane < 1 {
		return out
	}
	side := int(math.Ceil(math.Sqrt(float64(perPlane))))
	for pl := 0; pl < nPlanes; pl++ {
		z := 0.0
		if nPlanes > 1 {
			z = (float64(pl)/float64(nPlanes-1) - 0.5) * depthExtent
		}
		count := 0
		for gy := 0; gy < side && count < perPlane; gy++ {
			for gx := 0; gx < side && count < perPlane; gx++ {
				fx := 0.0
				fy := 0.0
				if side > 1 {
					fx = (float64(gx)/float64(side-1) - 0.5) * lateralExtent
					fy = (float64(gy)/float64(side-1) - 0.5) * lateralExtent
				}
				// offset planes laterally so spots do not overlap
				fx += float64(pl) * lateralExtent * 0.08
				out = append(out, Spot{X: fx, Y: fy, Z: z, Intensity: 1})
				count++
			}
		}
	}
	return out
}

package imgproc

import (
	"math"
	"sync"

	"illixr/internal/parallel"
	"illixr/internal/recycle"
)

// filterTileRows is the fixed scanline-tile height for parallel filters.
// Tiling depends only on image height (never on worker count), and every
// output pixel is computed independently, so parallel output is bitwise
// identical to serial — see DESIGN.md §8.
const filterTileRows = 16

// gaussianKernels caches normalized kernel weights by sigma. The cached
// slices are shared and read-only; the blur paths use them in place.
var (
	gaussianKernelMu sync.RWMutex
	gaussianKernels  = map[float64][]float64{}
)

func gaussianKernelCached(sigma float64) []float64 {
	gaussianKernelMu.RLock()
	k := gaussianKernels[sigma]
	gaussianKernelMu.RUnlock()
	if k != nil {
		return k
	}
	gaussianKernelMu.Lock()
	defer gaussianKernelMu.Unlock()
	if k = gaussianKernels[sigma]; k != nil {
		return k
	}
	k = computeGaussianKernel(sigma)
	gaussianKernels[sigma] = k
	return k
}

func computeGaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// gaussCtx carries one blur invocation's state so the tile closures can be
// built once per context and reused: a closure literal at the ForTiles
// call site would heap-allocate on every blur (DESIGN.md §10).
type gaussCtx struct {
	src, tmp, dst *Gray
	k             []float64
	radius        int
	hFn, vFn      func(lo, hi int)
}

var gaussCtxPool = sync.Pool{New: func() any {
	c := &gaussCtx{}
	c.hFn = func(lo, hi int) {
		src, tmp, k, radius := c.src, c.tmp, c.k, c.radius
		for y := lo; y < hi; y++ {
			for x := 0; x < src.W; x++ {
				s := 0.0
				for i, kv := range k {
					s += kv * float64(src.At(x+i-radius, y))
				}
				tmp.Pix[y*src.W+x] = float32(s)
			}
		}
	}
	c.vFn = func(lo, hi int) {
		tmp, dst, k, radius := c.tmp, c.dst, c.k, c.radius
		for y := lo; y < hi; y++ {
			for x := 0; x < tmp.W; x++ {
				s := 0.0
				for i, kv := range k {
					s += kv * float64(tmp.At(x, y+i-radius))
				}
				dst.Pix[y*tmp.W+x] = float32(s)
			}
		}
	}
	return c
}}

// GaussianBlurPool applies a separable Gaussian blur, the convolution
// scanlines tiled over a worker pool (nil pool = serial; output is bitwise
// identical for every worker count). The returned image is pooled — the caller owns it
// and may PutGray it when done.
func GaussianBlurPool(p *parallel.Pool, g *Gray, sigma float64) *Gray {
	k := gaussianKernelCached(sigma)
	tmp := GetGray(g.W, g.H)
	out := GetGray(g.W, g.H)
	c := gaussCtxPool.Get().(*gaussCtx)
	c.src, c.tmp, c.dst, c.k, c.radius = g, tmp, out, k, len(k)/2
	// horizontal then vertical pass
	p.ForTiles("gaussian_h", g.H, filterTileRows, c.hFn)
	p.ForTiles("gaussian_v", g.H, filterTileRows, c.vFn)
	c.src, c.tmp, c.dst, c.k = nil, nil, nil, nil
	gaussCtxPool.Put(c)
	PutGray(tmp)
	return out
}

// sobelCtx carries one Sobel invocation for the persistent tile closure.
type sobelCtx struct {
	src, gx, gy *Gray
	fn          func(lo, hi int)
}

var sobelCtxPool = sync.Pool{New: func() any {
	c := &sobelCtx{}
	c.fn = func(lo, hi int) {
		g, gx, gy := c.src, c.gx, c.gy
		for y := lo; y < hi; y++ {
			for x := 0; x < g.W; x++ {
				tl := g.At(x-1, y-1)
				t := g.At(x, y-1)
				tr := g.At(x+1, y-1)
				l := g.At(x-1, y)
				r := g.At(x+1, y)
				bl := g.At(x-1, y+1)
				b := g.At(x, y+1)
				br := g.At(x+1, y+1)
				gx.Pix[y*g.W+x] = (tr + 2*r + br - tl - 2*l - bl) / 8
				gy.Pix[y*g.W+x] = (bl + 2*b + br - tl - 2*t - tr) / 8
			}
		}
	}
	return c
}}

// SobelPool computes image gradients with the 3×3 Sobel operator, returning
// the horizontal (gx) and vertical (gy) derivative images, with scanlines
// tiled over a worker pool. Both are pooled and owned by the caller.
func SobelPool(p *parallel.Pool, g *Gray) (gx, gy *Gray) {
	gx = GetGray(g.W, g.H)
	gy = GetGray(g.W, g.H)
	c := sobelCtxPool.Get().(*sobelCtx)
	c.src, c.gx, c.gy = g, gx, gy
	p.ForTiles("sobel", g.H, filterTileRows, c.fn)
	c.src, c.gx, c.gy = nil, nil, nil
	sobelCtxPool.Put(c)
	return gx, gy
}

// Bilateral applies a bilateral filter: a spatial Gaussian modulated by a
// range Gaussian so edges are preserved. Scene reconstruction uses it to
// denoise incoming depth images (Table VI, "Camera Processing").
func Bilateral(g *Gray, sigmaSpace, sigmaRange float64) *Gray {
	radius := int(math.Ceil(2 * sigmaSpace))
	if radius < 1 {
		radius = 1
	}
	out := GetGray(g.W, g.H)
	// precompute spatial weights
	size := 2*radius + 1
	spatial := recycle.F64.Get(size * size)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			d2 := float64(dx*dx + dy*dy)
			spatial[(dy+radius)*size+dx+radius] = math.Exp(-d2 / (2 * sigmaSpace * sigmaSpace))
		}
	}
	inv2sr2 := 1 / (2 * sigmaRange * sigmaRange)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			center := float64(g.At(x, y))
			num, den := 0.0, 0.0
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					v := float64(g.At(x+dx, y+dy))
					dr := v - center
					w := spatial[(dy+radius)*size+dx+radius] * math.Exp(-dr*dr*inv2sr2)
					num += w * v
					den += w
				}
			}
			out.Pix[y*g.W+x] = float32(num / den)
		}
	}
	recycle.F64.Put(spatial)
	return out
}

// downCtx carries one Downsample2 invocation for the persistent closure.
type downCtx struct {
	src, dst *Gray
	fn       func(lo, hi int)
}

var downCtxPool = sync.Pool{New: func() any {
	c := &downCtx{}
	c.fn = func(lo, hi int) {
		g, out := c.src, c.dst
		w2 := out.W
		for y := lo; y < hi; y++ {
			for x := 0; x < w2; x++ {
				s := g.At(2*x, 2*y) + g.At(2*x+1, 2*y) + g.At(2*x, 2*y+1) + g.At(2*x+1, 2*y+1)
				out.Pix[y*w2+x] = s / 4
			}
		}
	}
	return c
}}

// downsample2Pool halves the image size by averaging 2×2 blocks, with
// scanlines tiled over a worker pool. The returned image is pooled and
// owned by the caller.
func downsample2Pool(p *parallel.Pool, g *Gray) *Gray {
	w2 := g.W / 2
	h2 := g.H / 2
	if w2 < 1 {
		w2 = 1
	}
	if h2 < 1 {
		h2 = 1
	}
	out := GetGray(w2, h2)
	c := downCtxPool.Get().(*downCtx)
	c.src, c.dst = g, out
	p.ForTiles("downsample2", h2, filterTileRows, c.fn)
	c.src, c.dst = nil, nil
	downCtxPool.Put(c)
	return out
}

// Pyramid is a Gaussian image pyramid: Levels[0] is the full-resolution
// image, each subsequent level is blurred and downsampled by 2.
type Pyramid struct {
	Levels []*Gray
}

// BuildPyramid constructs an n-level pyramid (n >= 1).
func BuildPyramid(g *Gray, levels int) *Pyramid {
	return BuildPyramidPool(nil, g, levels)
}

// BuildPyramidPool is BuildPyramid with each level's blur and downsample
// tiled over a worker pool. Levels[0] aliases g (it is not copied); the
// derived levels are pooled. Recycle the whole structure with
// ReleasePyramid when the pyramid is no longer needed.
func BuildPyramidPool(pool *parallel.Pool, g *Gray, levels int) *Pyramid {
	if levels < 1 {
		levels = 1
	}
	p := getPyramidHeader()
	cur := g
	p.Levels = append(p.Levels, cur)
	for i := 1; i < levels; i++ {
		if cur.W < 8 || cur.H < 8 {
			break
		}
		blurred := GaussianBlurPool(pool, cur, 1.0)
		cur = downsample2Pool(pool, blurred)
		PutGray(blurred)
		p.Levels = append(p.Levels, cur)
	}
	return p
}

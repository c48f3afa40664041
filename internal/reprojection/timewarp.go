// Package reprojection implements ILLIXR's asynchronous reprojection
// component (Table II, "Reprojection"): rotational (and optionally
// translational) timewarp of the application-rendered frame onto the
// freshest head pose, combined with mesh-based radial lens-distortion and
// chromatic-aberration correction as in van Waveren's asynchronous
// timewarp.
package reprojection

import (
	"math"
	"sync"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
)

// Params configures the reprojection pass.
type Params struct {
	// FovY is the vertical field of view of both source and output, rad.
	FovY float64
	// Translational enables positional reprojection against a constant
	// depth plane (ILLIXR v1 implements rotational only; translational was
	// added later — §II-A).
	Translational bool
	// PlaneDepth is the assumed scene depth (m) for translational
	// correction.
	PlaneDepth float64
	// MeshSize is the distortion-mesh resolution per axis (Table II:
	// mesh-based radial distortion).
	MeshSize int
	// K1, K2 are the lens radial distortion coefficients to pre-correct.
	K1, K2 float64
	// ChromaticScale offsets K1 per color channel (red and blue are
	// distorted slightly differently by the lens).
	ChromaticScale float64
	// Workers is the data-parallel worker count for the per-scanline warp
	// (0 or 1 = serial). Every output pixel is computed independently, so
	// the warped frame is bitwise identical for any worker count
	// (DESIGN.md §8).
	Workers int
}

// DefaultParams mirrors a typical HMD configuration.
func DefaultParams() Params {
	return Params{
		FovY:           mathx.Deg2Rad(90),
		Translational:  false,
		PlaneDepth:     2.0,
		MeshSize:       32,
		K1:             0.22,
		K2:             0.08,
		ChromaticScale: 0.015,
	}
}

// Stats records per-frame reprojection work for the performance model,
// split into the three tasks of Table VII.
type Stats struct {
	// FBO and OpenGL state-update tasks are modelled as fixed driver-call
	// overhead; counted as "state ops".
	StateOps int
	// Pixels resampled by the reprojection shader.
	Pixels int
	// MeshVertices transformed (6 matrix-vector multiplies per vertex as
	// per Table VII).
	MeshVertices int
}

// Reprojector holds the precomputed distortion meshes.
type Reprojector struct {
	P Params
	// distortion mesh per channel: for output grid vertex (i, j), the
	// tangent-space (x, y) direction to sample. Shared read-only with the
	// params-keyed mesh cache.
	meshR, meshG, meshB [][2]float64
	meshW, meshH        int
	Stats               Stats
	pool                *parallel.Pool

	// Persistent warp state: per-call arguments for the single warp kernel
	// built once per Reprojector, so steady-state Reproject calls allocate
	// nothing beyond the pooled output frame (DESIGN.md §10). Reproject is
	// not safe for concurrent use on one Reprojector (it never was: it
	// mutates Stats).
	warpSrc     *imgproc.RGB
	warpOut     *imgproc.RGB
	warpDR      mathx.Mat3
	warpDPos    mathx.Vec3
	warpTanHalf float64
	warpAspect  float64
	warpFn      func(lo, hi int)

	// xblend is the pose-independent half of the mesh interpolation at
	// source width xblendW: entry ((j·W + px)·3 + c)·2 + k holds
	// v0·(1-ax) + v1·ax, coordinate k of channel c's mesh blended across
	// column px's cell on mesh row j. Built by the first Reproject at a
	// width, rebuilt (in place when it fits) when the width changes.
	xblend  []float64
	xblendW int
}

// meshKey identifies one cached distortion-mesh triple. Only the optical
// parameters participate; Workers and the translational settings do not
// affect the mesh.
type meshKey struct {
	fovY, k1, k2, chromaticScale float64
	meshSize                     int
}

// meshSet is the per-channel distortion mesh triple for one optical
// configuration. Meshes are immutable after construction, so every
// Reprojector with the same optics shares one set.
type meshSet struct {
	r, g, b [][2]float64
}

var (
	meshCacheMu sync.RWMutex
	meshCache   = map[meshKey]*meshSet{}
)

func cachedMeshes(p Params) *meshSet {
	key := meshKey{fovY: p.FovY, k1: p.K1, k2: p.K2, chromaticScale: p.ChromaticScale, meshSize: p.MeshSize}
	meshCacheMu.RLock()
	ms := meshCache[key]
	meshCacheMu.RUnlock()
	if ms != nil {
		return ms
	}
	meshCacheMu.Lock()
	defer meshCacheMu.Unlock()
	if ms = meshCache[key]; ms != nil {
		return ms
	}
	w := p.MeshSize + 1
	ms = &meshSet{
		r: buildMesh(p.FovY, w, w, p.K1*(1+p.ChromaticScale), p.K2),
		g: buildMesh(p.FovY, w, w, p.K1, p.K2),
		b: buildMesh(p.FovY, w, w, p.K1*(1-p.ChromaticScale), p.K2),
	}
	meshCache[key] = ms
	return ms
}

// New builds a reprojector, fetching its distortion meshes from the
// params-keyed cache (they are rebuilt only for a configuration not seen
// before).
func New(p Params) *Reprojector {
	if p.MeshSize < 2 {
		p.MeshSize = 2
	}
	r := &Reprojector{P: p, meshW: p.MeshSize + 1, meshH: p.MeshSize + 1}
	ms := cachedMeshes(p)
	r.meshR, r.meshG, r.meshB = ms.r, ms.g, ms.b
	if p.Workers > 1 {
		r.pool = parallel.New(p.Workers)
	}
	r.warpFn = r.warpTile
	return r
}

// SetPool overrides the worker pool (e.g. to share one instrumented pool
// across kernels). A nil pool restores the serial path.
func (r *Reprojector) SetPool(p *parallel.Pool) { r.pool = p }

// warpTileRows is the fixed scanline-tile height of the parallel warp.
const warpTileRows = 8

// buildMesh computes, for each mesh vertex of the output (distorted
// display) grid, the pre-distorted tangent-space coordinate to sample from
// the rendered image: the inverse of the lens pincushion distortion.
func buildMesh(fovY float64, meshW, meshH int, k1, k2 float64) [][2]float64 {
	tanHalf := math.Tan(fovY / 2)
	mesh := make([][2]float64, meshW*meshH)
	for j := 0; j < meshH; j++ {
		for i := 0; i < meshW; i++ {
			// normalized device coords in [-1, 1]
			nx := 2*float64(i)/float64(meshW-1) - 1
			ny := 2*float64(j)/float64(meshH-1) - 1
			// tangent space
			tx := nx * tanHalf
			ty := ny * tanHalf
			// barrel-distort the sample position so that the lens's
			// pincushion cancels: x' = x (1 + k1 r² + k2 r⁴)
			r2 := tx*tx + ty*ty
			d := 1 + k1*r2 + k2*r2*r2
			mesh[j*meshW+i] = [2]float64{tx * d, ty * d}
		}
	}
	return mesh
}

// meshCell locates normalised output coordinate t in [0, 1] on a mesh axis
// of n vertices: the cell's first vertex and the weight of its second. All
// three channel meshes share one grid, so a cell is found once per row (and
// once per column, when the x-blend table is built), not once per channel.
func meshCell(t float64, n int) (i0 int, a float64) {
	f := t * float64(n-1)
	i0 = int(f)
	if i0 >= n-1 {
		i0 = n - 2
	}
	return i0, f - float64(i0)
}

// buildXBlend fills the x-blend table for source width w: the bilinear
// mesh interpolation's two row terms v00·(1-ax)+v10·ax and v01·(1-ax)+v11·ax
// depend only on the output column, so they are evaluated once per column
// and mesh row instead of once per pixel and frame.
func (r *Reprojector) buildXBlend(w int) {
	n := r.meshH * w * 6
	if cap(r.xblend) < n {
		r.xblend = make([]float64, n)
	}
	xb := r.xblend[:n]
	meshes := [3][][2]float64{r.meshR, r.meshG, r.meshB}
	fw := float64(w)
	for px := 0; px < w; px++ {
		x0, ax := meshCell((float64(px)+0.5)/fw, r.meshW)
		for j := 0; j < r.meshH; j++ {
			e := xb[(j*w+px)*6 : (j*w+px)*6+6]
			for c, mesh := range meshes {
				v0, v1 := mesh[j*r.meshW+x0], mesh[j*r.meshW+x0+1]
				e[2*c] = v0[0]*(1-ax) + v1[0]*ax
				e[2*c+1] = v0[1]*(1-ax) + v1[1]*ax
			}
		}
	}
	r.xblend, r.xblendW = xb, w
}

// Reproject warps the source frame (rendered at renderPose) to the fresh
// pose and applies lens-distortion + chromatic-aberration correction. The
// output has the same dimensions as the source and is pooled: the caller
// owns it and may recycle it with imgproc.PutRGB when done.
func (r *Reprojector) Reproject(src *imgproc.RGB, renderPose, freshPose mathx.Pose) *imgproc.RGB {
	out := imgproc.GetRGB(src.W, src.H)
	r.Stats.StateOps += 3 // FBO bind/clear + per-eye draw state (modelled)
	r.Stats.MeshVertices += 3 * r.meshW * r.meshH
	r.Stats.Pixels += src.W * src.H

	// Rotation from fresh view to render view: a direction seen in the
	// fresh camera frame is mapped into the render camera frame.
	dq := renderPose.Rot.Inverse().Mul(freshPose.Rot)
	r.warpDR = dq.RotationMatrix()
	r.warpDPos = mathx.Vec3{}
	if r.P.Translational {
		// displacement of the camera expressed in the render frame
		r.warpDPos = renderPose.Rot.Inverse().Rotate(freshPose.Pos.Sub(renderPose.Pos))
	}

	if r.xblendW != src.W {
		r.buildXBlend(src.W)
	}
	r.warpSrc, r.warpOut = src, out
	r.warpTanHalf = math.Tan(r.P.FovY / 2)
	r.warpAspect = float64(src.W) / float64(src.H)
	r.pool.ForTiles("reprojection", src.H, warpTileRows, r.warpFn)
	r.warpSrc, r.warpOut = nil, nil
	return out
}

// warpTile is the per-scanline warp kernel; its arguments live in the
// Reprojector's warp* fields, set by Reproject before dispatch.
func (r *Reprojector) warpTile(lo, hi int) {
	src, out := r.warpSrc, r.warpOut
	dR, dPos := r.warpDR, r.warpDPos
	tanHalf, aspect := r.warpTanHalf, r.warpAspect
	translate := r.P.Translational && r.P.PlaneDepth > 0
	pix, w, h := src.Pix, src.W, src.H
	fw, fh := float64(w), float64(h)
	row := 6 * w
	for py := lo; py < hi; py++ {
		y0, ay := meshCell((float64(py)+0.5)/fh, r.meshH)
		top := r.xblend[y0*row : (y0+1)*row]
		bot := r.xblend[(y0+1)*row : (y0+2)*row]
		o := 3 * py * w
		for px := 0; px < w; px++ {
			t, b := top[6*px:6*px+6], bot[6*px:6*px+6]
			// per-channel distorted tangent-space direction in the fresh
			// view (display space): the y half of the mesh blend
			var rgb [3]float32
			for c := 0; c < 3; c++ {
				tx := t[2*c]*(1-ay) + b[2*c]*ay
				ty := t[2*c+1]*(1-ay) + b[2*c+1]*ay
				// direction in fresh camera space (camera looks down +Z
				// here with x right, y down in image space)
				dir := mathx.Vec3{X: tx * aspect, Y: ty, Z: 1}
				// rotate into the render camera frame
				rd := dR.MulVec(dir)
				if translate {
					// intersect with the constant-depth plane and correct
					// for camera displacement
					pt := rd.Scale(r.P.PlaneDepth / math.Max(rd.Z, 1e-6))
					pt = pt.Add(dPos)
					rd = pt
				}
				if rd.Z <= 1e-6 {
					continue // behind the render camera: leave black
				}
				sx := rd.X / rd.Z / aspect
				sy := rd.Y / rd.Z
				// back to pixel coordinates in the source frame
				fx := (sx/tanHalf + 1) / 2 * fw
				fy := (sy/tanHalf + 1) / 2 * fh
				if fx < 0 || fy < 0 || fx >= fw || fy >= fh {
					continue
				}
				x0, x1, ax := cell(fx-0.5, w)
				y0, y1, ay := cell(fy-0.5, h)
				rgb[c] = blend(pix, 3*y0*w+c, 3*y1*w+c, 3*x0, 3*x1, ax, ay)
			}
			out.Pix[o], out.Pix[o+1], out.Pix[o+2] = rgb[0], rgb[1], rgb[2]
			o += 3
		}
	}
}

// cell is the two clamped taps of coordinate x on an axis of n pixels, and
// the weight of the second, for x in [−0.5, n−0.5): the cell origin ⌊x⌋ is
// int(x) or −1, so a tap clamps only at −1 (both onto pixel 0) or past the
// far edge (the second onto pixel n−1). The weight comes from the
// unclamped origin, as in the textbook sampler.
func cell(x float64, n int) (i0, i1 int, f float32) {
	i := int(x)
	if x < 0 {
		i = -1
	}
	return max(i, 0), min(i+1, n-1), float32(x - float64(i))
}

// blend is the bilinear blend of one channel's four taps: columns x0 and x1
// (as Pix offsets) of the rows starting at Pix offsets row0 and row1,
// weighted fx across and fy down, in the textbook sampler's order.
func blend(pix []float32, row0, row1, x0, x1 int, fx, fy float32) float32 {
	v00, v10 := pix[row0+x0], pix[row0+x1]
	v01, v11 := pix[row1+x0], pix[row1+x1]
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

package render

import (
	"math"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
)

// ShadingModel selects the per-fragment cost class.
type ShadingModel int

const (
	// shadeFlat is ambient-only (cheapest).
	shadeFlat ShadingModel = iota
	// shadeLambert is diffuse-only.
	shadeLambert
	// shadeBlinnPhong adds a specular lobe.
	shadeBlinnPhong
	// shadePBR is the most expensive: GGX-style specular with Fresnel and
	// a displacement-ish normal perturbation (the Materials app workload).
	shadePBR
)

// Material describes the surface of an instance.
type Material struct {
	Albedo    [3]float32
	Model     ShadingModel
	Roughness float64
	Metallic  float64
}

// Instance places a mesh in the world.
type Instance struct {
	Mesh     *Mesh
	Material Material
	// Animated instances are re-posed each frame by the scene's Update.
	Name string
}

// Light is a directional light.
type Light struct {
	Dir   mathx.Vec3
	Color [3]float32
}

// Scene is a collection of instances plus lights and an update hook.
type Scene struct {
	Name      string
	Instances []*Instance
	Lights    []Light
	Ambient   float32
	// Update advances scene animation/physics to time t (seconds).
	Update func(s *Scene, t float64)
	// PhysicsCost is a per-frame work weight for app-side simulation
	// (Platformer's physics and collisions, the AR demo's ball).
	PhysicsCost int
}

// triangleCount sums the triangles over all instances.
func (s *Scene) TriangleCount() int {
	n := 0
	for _, in := range s.Instances {
		n += in.Mesh.triangleCount()
	}
	return n
}

// FrameStats counts rendering work for the performance model.
type FrameStats struct {
	TrianglesSubmitted  int
	TrianglesRasterized int
	FragmentsShaded     int
	ShadingCostWeight   int // fragments weighted by shading model cost
	PhysicsOps          int
}

// Renderer is a z-buffered software rasterizer. A frame is two passes on
// the renderer's pool (DESIGN.md §8): a set-up pass over the scene's
// instances, each projecting its mesh and placing its screen-space
// triangles into a list of its own, and a raster+shade pass over fixed
// bands of rows that walks those lists in instance order. RenderFrame is
// not safe for concurrent use on one Renderer.
type Renderer struct {
	W, H  int
	FovY  float64
	Near  float64
	Far   float64
	color *imgproc.RGB
	depth []float32
	Stats FrameStats
	pool  *parallel.Pool

	// Per-frame state the two kernels read, in buffers kept across frames
	// so that a steady-state RenderFrame allocates nothing (DESIGN.md §10).
	scene     *Scene       // the scene inst was sized for
	inst      []instSetup  // one per instance of scene, in its order
	vp        mathx.Mat4   // this frame's view-projection
	cull      [5]cullPlane // this frame's instance-skip half-spaces
	lights    []frameLight
	ambient   float32
	bandStats []bandCount // one per band of the framebuffer
	setUpFn   func(lo, hi int)
	bandFn    func(lo, hi int)
}

// instSetup is one instance's share of a frame's set-up: its projected
// vertices and its surviving triangles, in submission order.
type instSetup struct {
	verts []screenVert
	tris  []setupTri
}

// rasterBandRows is the fixed band height of the raster pass. Bands depend
// only on the framebuffer height, never on the worker count.
const rasterBandRows = 8

// NewRenderer creates a renderer with the given framebuffer size and a
// GOMAXPROCS-sized worker pool of its own.
func NewRenderer(w, h int) *Renderer {
	r := &Renderer{
		W: w, H: h,
		FovY: mathx.Deg2Rad(90), Near: 0.05, Far: 100,
		color: imgproc.NewRGB(w, h),
		depth: make([]float32, w*h),
		pool:  parallel.New(0),

		bandStats: make([]bandCount, parallel.Tiles(h, rasterBandRows)),
	}
	r.setUpFn = r.setUpInstances
	r.bandFn = r.rasterBand
	return r
}

// SetPool overrides the worker pool (e.g. to share one instrumented pool
// across kernels). A nil pool restores the serial path.
func (r *Renderer) SetPool(p *parallel.Pool) { r.pool = p }

// viewFromPose builds the view matrix for a body pose: the camera looks
// along body +X with body +Z up (the same convention as the sensors
// package).
func viewFromPose(p mathx.Pose) mathx.Mat4 {
	fwd := p.ApplyDir(mathx.Vec3{X: 1})
	up := p.ApplyDir(mathx.Vec3{Z: 1})
	return mathx.LookAt(p.Pos, p.Pos.Add(fwd), up)
}

// RenderFrame rasterizes the scene from the given head pose and returns
// the framebuffer (reused across calls — clone if retained).
func (r *Renderer) RenderFrame(s *Scene, pose mathx.Pose, t float64) *imgproc.RGB {
	if s.Update != nil {
		s.Update(s, t)
		r.Stats.PhysicsOps += s.PhysicsCost
	}
	r.setUp(s, pose)
	r.pool.ForTiles("render", r.H, rasterBandRows, r.bandFn)
	for _, b := range r.bandStats {
		r.Stats.FragmentsShaded += b.fragments
		r.Stats.ShadingCostWeight += b.costWeight
	}
	return r.color
}

// setUp is the first pass: it turns the scene, as posed now, into each
// instance's triangle list, one pool tile per instance, and works out the
// light constants.
func (r *Renderer) setUp(s *Scene, pose mathx.Pose) {
	view := viewFromPose(pose)
	proj := mathx.Perspective(r.FovY, float64(r.W)/float64(r.H), r.Near, r.Far)
	r.vp = proj.Mul(view)
	r.setUpCull(r.vp)
	r.sizeFor(s)
	r.pool.ForTiles("render_setup", len(s.Instances), 1, r.setUpFn)
	for i, inst := range s.Instances {
		r.Stats.TrianglesSubmitted += len(inst.Mesh.Triangles)
		r.Stats.TrianglesRasterized += len(r.inst[i].tris)
	}
	r.setUpLights(s)
}

// sizeFor gives every instance of s its set-up buffers, sized from its
// mesh, the first time the renderer renders s: an instance coming into
// view later allocates nothing. Two slabs hold them all.
func (r *Renderer) sizeFor(s *Scene) {
	if s == r.scene && len(r.inst) == len(s.Instances) {
		return
	}
	nv, nt := 0, 0
	for _, inst := range s.Instances {
		nv += len(inst.Mesh.Vertices)
		nt += len(inst.Mesh.Triangles)
	}
	verts, tris := make([]screenVert, nv), make([]setupTri, nt)
	r.scene, r.inst = s, make([]instSetup, len(s.Instances))
	for i, inst := range s.Instances {
		v, t := len(inst.Mesh.Vertices), len(inst.Mesh.Triangles)
		r.inst[i] = instSetup{verts: verts[:v:v], tris: tris[:0:t]}
		verts, tris = verts[v:], tris[t:]
	}
}

// setUpInstances is the set-up pool kernel: it sets up instances
// [lo, hi) of the scene, each into its own buffers.
func (r *Renderer) setUpInstances(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.setUpMesh(r.scene.Instances[i], &r.inst[i])
	}
}

// cullPlane is a world-space half-space n·p + d >= 0 holding every point
// that could still land a triangle vertex on screen.
type cullPlane struct {
	n    mathx.Vec3
	d    float64
	norm float64 // |n|, so a sphere test is one dot product
}

// cullMarginPx widens the side planes past the framebuffer. The bounding-
// box clip keeps a triangle whose vertices all sit within 1 px outside an
// edge (floor/ceil round them onto it), so a skip needs more than that.
const cullMarginPx = 2

// cullSlack absorbs the rounding of the plane and bound arithmetic, which is
// some 1e-14 at room scale.
const cullSlack = 1e-9

// setUpCull derives the frame's skip planes from the clip rows of vp: the
// near plane (clip w >= Near) and four side planes at cullMarginPx outside
// the framebuffer (|clip x| <= kx·w, |clip y| <= ky·w).
func (r *Renderer) setUpCull(vp mathx.Mat4) {
	kx := 1 + 2*cullMarginPx/float64(r.W)
	ky := 1 + 2*cullMarginPx/float64(r.H)
	plane := func(x, y, w, d float64) cullPlane {
		// the combination x·rowX + y·rowY + w·rowW of vp's clip rows
		n := mathx.Vec3{
			X: x*vp[0] + y*vp[4] + w*vp[12],
			Y: x*vp[1] + y*vp[5] + w*vp[13],
			Z: x*vp[2] + y*vp[6] + w*vp[14],
		}
		return cullPlane{n: n, d: x*vp[3] + y*vp[7] + w*vp[15] + d, norm: n.Norm()}
	}
	r.cull = [5]cullPlane{
		plane(0, 0, 1, -r.Near),
		plane(1, 0, kx, 0),
		plane(-1, 0, kx, 0),
		plane(0, 1, ky, 0),
		plane(0, -1, ky, 0),
	}
}

// skips reports whether no triangle of m can survive set-up: its bounding
// sphere lies wholly behind the near plane, or wholly outside one side
// plane, where any vertex in front of the near plane projects more than
// cullMarginPx off screen. A triangle needs all three vertices in front of
// the near plane, so either way the triangle loop would keep nothing.
func (r *Renderer) skips(m *Mesh) bool {
	if !m.bounded {
		return false
	}
	for i := range r.cull {
		c := &r.cull[i]
		if c.n.Dot(m.center)+c.d < -(c.norm*m.radius + cullSlack) {
			return true
		}
	}
	return false
}

// setupTri is one triangle that survived the near-plane reject, the
// backface cull and the bounding-box clip, ready to rasterize.
type setupTri struct {
	ax, ay, bx, by, cx, cy float64 // screen-space vertices, pixels
	za, zb, zc             float64 // NDC depth at each vertex
	invArea                float64
	minX, maxX, minY, maxY int // pixel bounding box, clipped to the framebuffer
	va, vb, vc             *Vertex
	mat                    *Material
	slope                  [3]float64 // dx/dy of edges B→C, C→A, A→B, where spans has their bit
	spans                  uint8      // the edges that narrow each row's span (rowSpan)
}

// frameLight is a scene light with its per-frame constants worked out.
type frameLight struct {
	dir   mathx.Vec3 // unit vector from the surface toward the light
	half  mathx.Vec3 // Blinn half-vector between dir and the view direction
	color [3]float32
}

// bandCount is one band's share of the frame's fragment counters.
type bandCount struct {
	fragments, costWeight int
}

// setUpLights works out what shade needs of each light once per frame.
func (r *Renderer) setUpLights(s *Scene) {
	r.ambient = s.Ambient
	r.lights = r.lights[:0]
	for _, l := range s.Lights {
		ld := l.Dir.Normalized().Neg() // Dir points from light toward scene
		// view direction approximated as +Z (headset-relative highlights
		// are not needed for workload purposes)
		h := ld.Add(mathx.Vec3{Z: 1}).Normalized()
		r.lights = append(r.lights, frameLight{dir: ld, half: h, color: l.Color})
	}
}

// screenVert is a vertex after projection: pixel position, NDC depth and
// the clip-space w the near-plane test reads.
type screenVert struct {
	x, y, z, w float64
}

// setUpMesh projects an instance's vertices and lists its visible
// triangles in st. A mesh that grew since sizeFor grows st with it.
func (r *Renderer) setUpMesh(inst *Instance, st *instSetup) {
	mesh := inst.Mesh
	st.tris = st.tris[:0]
	if r.skips(mesh) {
		return
	}
	// project every vertex once, however many triangles share it
	if cap(st.verts) < len(mesh.Vertices) {
		st.verts = make([]screenVert, len(mesh.Vertices))
	}
	verts := st.verts[:len(mesh.Vertices)]
	vp := &r.vp
	fw, fh := float64(r.W), float64(r.H)
	for i := range mesh.Vertices {
		p := &mesh.Vertices[i].Pos
		clip := vp.MulVec(mathx.Vec4{X: p.X, Y: p.Y, Z: p.Z, W: 1})
		ndc := clip.PerspectiveDivide()
		// viewport transform (NDC y up → pixel y down)
		verts[i] = screenVert{
			x: (ndc.X + 1) / 2 * fw,
			y: (1 - ndc.Y) / 2 * fh,
			z: ndc.Z,
			w: clip.W,
		}
	}
	for _, tri := range mesh.Triangles {
		a, b, c := &verts[tri[0]], &verts[tri[1]], &verts[tri[2]]
		// reject triangles with any vertex behind the near plane (simple
		// clipping: fine for these scenes where geometry is room-scale)
		if a.w < r.Near || b.w < r.Near || c.w < r.Near {
			continue
		}
		n := len(st.tris)
		if n == cap(st.tris) {
			st.tris = append(st.tris, setupTri{})[:n]
		}
		t := &st.tris[:n+1][n] // place sets all but the fields set below
		if !t.place(a.x, a.y, b.x, b.y, c.x, c.y, r.W, r.H) {
			continue
		}
		st.tris = st.tris[:n+1]
		t.za, t.zb, t.zc = a.z, b.z, c.z
		t.va, t.vb, t.vc = &mesh.Vertices[tri[0]], &mesh.Vertices[tri[1]], &mesh.Vertices[tri[2]]
		t.mat = &inst.Material
	}
}

// The row span: rasterBand tests, on each row of a wide triangle, only the
// pixels whose centres lie within spanSlack of the inner side of every edge
// that is not near-horizontal, instead of the whole width of the bounding
// box. A pixel it skips would have failed the barycentric test, so the
// frame is the same bit for bit (DESIGN.md §8).
const (
	// spanMinWidth is the narrowest bounding box whose rows are narrowed:
	// on a narrower one the span arithmetic costs about what it saves.
	spanMinWidth = 8
	// spanMinDy is the least height, in pixels, of an edge that narrows the
	// span: a flatter edge bounds at most two rows, and the rounding of its
	// crossing grows as 1/|dy|.
	spanMinDy = 1
	// spanMaxCoord bounds the vertex coordinates, in pixels, of a narrowed
	// triangle: within it the crossings and the edge tests round by less
	// than 2⁻¹⁰ px (DESIGN.md §8), far inside spanSlack.
	spanMaxCoord = 1 << 18
	// spanSlack widens each side of the span, in pixels, past the exact
	// crossing, so that the rounding of both can only add a pixel to test.
	spanSlack = 1.0 / 16
)

// place sets t's screen-space vertices, 1/area, bounding box clipped to a
// w×h framebuffer and row-span slopes, and reports false for a triangle
// set-up drops: back-facing, or outside the framebuffer.
func (t *setupTri) place(ax, ay, bx, by, cx, cy float64, w, h int) bool {
	// backface cull (counter-clockwise front faces in screen space)
	area := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	if area >= 0 {
		return false
	}
	// bounding box
	minX := int(math.Floor(math.Min(ax, math.Min(bx, cx))))
	maxX := int(math.Ceil(math.Max(ax, math.Max(bx, cx))))
	minY := int(math.Floor(math.Min(ay, math.Min(by, cy))))
	maxY := int(math.Ceil(math.Max(ay, math.Max(by, cy))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > w-1 {
		maxX = w - 1
	}
	if maxY > h-1 {
		maxY = h - 1
	}
	if minX > maxX || minY > maxY {
		return false
	}
	// field by field: a composite literal is built aside and copied over
	t.ax, t.ay, t.bx, t.by, t.cx, t.cy = ax, ay, bx, by, cx, cy
	t.invArea = 1 / area
	t.minX, t.maxX, t.minY, t.maxY = minX, maxX, minY, maxY
	t.slope, t.spans = [3]float64{}, 0
	extent := max(math.Abs(ax), math.Abs(ay), math.Abs(bx), math.Abs(by), math.Abs(cx), math.Abs(cy))
	if maxX-minX+1 < spanMinWidth || !(extent <= spanMaxCoord) {
		return true
	}
	// the edges in rasterBand's order, as it computes them: B→C (w0), C→A
	// (w1), A→B (w2)
	for i, e := range [3][2]float64{{cx - bx, cy - by}, {ax - cx, ay - cy}, {bx - ax, by - ay}} {
		if math.Abs(e[1]) >= spanMinDy {
			t.spans |= 1 << i
			t.slope[i] = e[0] / e[1]
		}
	}
	return true
}

// rowSpan is the columns rasterBand tests on the row through fy: the
// bounding box, narrowed by each edge in t.spans to the pixels whose
// centres lie within spanSlack of its inner side. The inner side of edge
// i is to the right of its crossing where its dy is positive (the weight
// opposite it rises with x there, as the area is negative).
func (t *setupTri) rowSpan(fy float64) (lo, hi int) {
	lo, hi = t.minX, t.maxX
	if t.spans&1 != 0 {
		lo, hi = narrow(lo, hi, t.bx+t.slope[0]*(fy-t.by), t.cy > t.by)
	}
	if t.spans&2 != 0 {
		lo, hi = narrow(lo, hi, t.cx+t.slope[1]*(fy-t.cy), t.ay > t.cy)
	}
	if t.spans&4 != 0 {
		lo, hi = narrow(lo, hi, t.ax+t.slope[2]*(fy-t.ay), t.by > t.ay)
	}
	return lo, hi
}

// narrow clips [lo, hi] to the pixels whose centres px+0.5 lie right of
// x−spanSlack (left: x bounds the span from the left) or left of
// x+spanSlack.
func narrow(lo, hi int, x float64, left bool) (int, int) {
	if left {
		if l := x - 0.5 - spanSlack; l > float64(lo) {
			lo = int(math.Ceil(l))
		}
	} else if r := x - 0.5 + spanSlack; r < float64(hi) {
		hi = int(math.Floor(r))
	}
	return lo, hi
}

// rasterBand clears rows [lo, hi) and rasterizes and shades every set-up
// triangle clipped to them, in submission order (instance by instance,
// each instance's in mesh order): a pixel sees the same triangles in the
// same order whichever band size or worker runs it, so the depth test (a
// later triangle at equal depth loses) resolves the same way. It is the
// raster pool kernel; its arguments are the Renderer's per-frame fields.
func (r *Renderer) rasterBand(lo, hi int) {
	w := r.W
	depth, pix := r.depth, r.color.Pix
	far := float32(math.Inf(1))
	for i := lo * w; i < hi*w; i++ {
		depth[i] = far
	}
	for i := 3 * lo * w; i < 3*hi*w; i++ {
		pix[i] = 0
	}
	var count bandCount
	for ii := range r.inst {
		tris := r.inst[ii].tris
		for i := range tris {
			t := &tris[i]
			y0, y1 := t.minY, t.maxY
			if y0 < lo {
				y0 = lo
			}
			if y1 > hi-1 {
				y1 = hi - 1
			}
			if y0 > y1 {
				continue
			}
			// locals, so the pixel loop reloads nothing through t after a
			// framebuffer store
			ax, bx, cx, by, cy := t.ax, t.bx, t.cx, t.by, t.cy
			dx0, dy0 := cx-bx, cy-by
			dx1, dy1 := ax-cx, t.ay-cy
			za, zb, zc, invArea := t.za, t.zb, t.zc, t.invArea
			minX, maxX, spans := t.minX, t.maxX, t.spans
			shaded := 0
			for py := y0; py <= y1; py++ {
				fy := float64(py) + 0.5
				// the row-constant halves of the two edge functions
				e0 := dx0 * (fy - by)
				e1 := dx1 * (fy - cy)
				x0, x1 := minX, maxX
				if spans != 0 {
					x0, x1 = t.rowSpan(fy)
				}
				for px := x0; px <= x1; px++ {
					fx := float64(px) + 0.5
					// barycentric
					w0 := (e0 - dy0*(fx-bx)) * invArea
					w1 := (e1 - dy1*(fx-cx)) * invArea
					w2 := 1 - w0 - w1
					if w0 < 0 || w1 < 0 || w2 < 0 {
						continue
					}
					z := float32(w0*za + w1*zb + w2*zc)
					di := py*w + px
					if z >= depth[di] {
						continue
					}
					depth[di] = z
					col := r.shade(t, w0, w1, w2)
					pix[3*di] = col[0]
					pix[3*di+1] = col[1]
					pix[3*di+2] = col[2]
					shaded++
				}
			}
			count.fragments += shaded
			count.costWeight += shaded * shadingCost(t.mat.Model)
		}
	}
	r.bandStats[lo/rasterBandRows] = count
}

func shadingCost(m ShadingModel) int {
	switch m {
	case shadeFlat:
		return 1
	case shadeLambert:
		return 2
	case shadeBlinnPhong:
		return 4
	default:
		return 10
	}
}

// shade colours the fragment of t at barycentric weights (w0, w1, w2).
func (r *Renderer) shade(t *setupTri, w0, w1, w2 float64) [3]float32 {
	m := t.mat
	amb := r.ambient
	var col [3]float32
	col[0] = m.Albedo[0] * amb
	col[1] = m.Albedo[1] * amb
	col[2] = m.Albedo[2] * amb
	if m.Model == shadeFlat {
		return col
	}
	n := t.va.Normal.Scale(w0).Add(t.vb.Normal.Scale(w1)).Add(t.vc.Normal.Scale(w2)).Normalized()
	for i := range r.lights {
		l := &r.lights[i]
		lam := mathx.Clamp(n.Dot(l.dir), 0, 1)
		if lam <= 0 {
			continue
		}
		diff := float32(lam)
		col[0] += m.Albedo[0] * l.color[0] * diff
		col[1] += m.Albedo[1] * l.color[1] * diff
		col[2] += m.Albedo[2] * l.color[2] * diff
		if m.Model == shadeLambert {
			continue
		}
		ndh := mathx.Clamp(n.Dot(l.half), 0, 1)
		if m.Model == shadeBlinnPhong {
			spec := float32(pow32(ndh))
			col[0] += 0.3 * spec * l.color[0]
			col[1] += 0.3 * spec * l.color[1]
			col[2] += 0.3 * spec * l.color[2]
			continue
		}
		// shadePBR: GGX distribution + Schlick Fresnel + a procedural
		// normal perturbation standing in for displacement mapping.
		rough := mathx.Clamp(m.Roughness, 0.05, 1)
		a2 := rough * rough * rough * rough
		denom := ndh*ndh*(a2-1) + 1
		d := a2 / (math.Pi * denom * denom)
		f0 := 0.04 + 0.96*m.Metallic
		fres := f0 + (1-f0)*pow5(1-ndh)
		// subsurface-ish wrap term
		wrap := (lam + 0.3) / 1.3
		spec := float32(d * fres * 0.25)
		for ch := 0; ch < 3; ch++ {
			col[ch] += (m.Albedo[ch]*float32(wrap)*0.4 + spec) * l.color[ch]
		}
	}
	for ch := 0; ch < 3; ch++ {
		if col[ch] > 1 {
			col[ch] = 1
		}
	}
	return col
}

// pow32 is math.Pow(x, 32) by five squarings. For an integer exponent Pow
// squares the Frexp mantissa with exact power-of-two renormalisation, so
// the two agree bit for bit wherever x³² is normal; where it is not, both
// round to 0 in shade's float32 conversion.
func pow32(x float64) float64 {
	x *= x
	x *= x
	x *= x
	x *= x
	return x * x
}

// pow5 is math.Pow(x, 5) in Pow's own multiplication order, x·(x²)²:
// bit-identical wherever the result is normal, which it is for 1-ndh
// (0 or at least 2⁻⁵³).
func pow5(x float64) float64 {
	x2 := x * x
	return x * (x2 * x2)
}

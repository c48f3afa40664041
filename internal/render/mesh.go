// Package render is ILLIXR-Go's application-side substrate: a software
// triangle rasterizer (z-buffered, per-pixel shaded) and procedurally
// generated scenes standing in for the Godot applications of §III-C —
// Sponza, Materials, Platformer and the AR demo — ordered by rendering
// complexity exactly as in the paper (Sponza most intensive, AR demo
// least).
package render

import (
	"math"

	"illixr/internal/mathx"
)

// Vertex is one mesh vertex.
type Vertex struct {
	Pos    mathx.Vec3
	Normal mathx.Vec3
}

// Mesh is an indexed triangle mesh.
//
// Every constructor (Box, Sphere, Plane, Column, Transform, transformInto)
// records a bounding sphere of the vertices it writes, and the renderer
// skips a whole instance whose sphere cannot put a triangle on screen. A
// Mesh built as a literal has no bound and is never skipped; code that
// edits Vertices in place must rewrite them through transformInto, which
// refreshes the bound, or the stale bound may hide geometry. The bound is
// computed eagerly, never on first use, so renderers may share a scene.
type Mesh struct {
	Vertices  []Vertex
	Triangles [][3]int

	center  mathx.Vec3 // bounding-sphere centre, valid when bounded
	radius  float64
	bounded bool
}

// triangleCount returns the number of triangles.
func (m *Mesh) triangleCount() int { return len(m.Triangles) }

// transform returns a copy of the mesh with positions and normals mapped
// through the pose and scaled.
func (m *Mesh) transform(pose mathx.Pose, scale mathx.Vec3) *Mesh {
	out := &Mesh{}
	m.transformInto(out, pose, scale)
	return out
}

// transformInto is Transform writing into dst: it rewrites dst.Vertices
// (reusing their storage), shares m's triangles and refreshes dst's bound.
// An animated instance re-posed every frame this way allocates nothing.
func (m *Mesh) transformInto(dst *Mesh, pose mathx.Pose, scale mathx.Vec3) {
	if cap(dst.Vertices) < len(m.Vertices) {
		dst.Vertices = make([]Vertex, len(m.Vertices))
	}
	dst.Vertices = dst.Vertices[:len(m.Vertices)]
	dst.Triangles = m.Triangles
	for i, v := range m.Vertices {
		p := mathx.Vec3{X: v.Pos.X * scale.X, Y: v.Pos.Y * scale.Y, Z: v.Pos.Z * scale.Z}
		dst.Vertices[i] = Vertex{
			Pos:    pose.Apply(p),
			Normal: pose.ApplyDir(v.Normal).Normalized(),
		}
	}
	dst.bound()
}

// bound records a sphere around the vertices: centred on their bounding
// box, with the largest vertex distance as radius.
func (m *Mesh) bound() {
	m.center, m.radius, m.bounded = mathx.Vec3{}, 0, true
	if len(m.Vertices) == 0 {
		return
	}
	lo, hi := m.Vertices[0].Pos, m.Vertices[0].Pos
	for i := range m.Vertices {
		p := m.Vertices[i].Pos
		lo = mathx.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = mathx.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	m.center = lo.Add(hi).Scale(0.5)
	for i := range m.Vertices {
		m.radius = math.Max(m.radius, m.Vertices[i].Pos.Sub(m.center).Norm())
	}
}

// box builds a unit cube centered at the origin with per-face normals.
func box() *Mesh {
	m := &Mesh{}
	faces := []struct {
		n    mathx.Vec3
		a, b mathx.Vec3 // in-plane axes
	}{
		{mathx.Vec3{X: 1}, mathx.Vec3{Y: 1}, mathx.Vec3{Z: 1}},
		{mathx.Vec3{X: -1}, mathx.Vec3{Z: 1}, mathx.Vec3{Y: 1}},
		{mathx.Vec3{Y: 1}, mathx.Vec3{Z: 1}, mathx.Vec3{X: 1}},
		{mathx.Vec3{Y: -1}, mathx.Vec3{X: 1}, mathx.Vec3{Z: 1}},
		{mathx.Vec3{Z: 1}, mathx.Vec3{X: 1}, mathx.Vec3{Y: 1}},
		{mathx.Vec3{Z: -1}, mathx.Vec3{Y: 1}, mathx.Vec3{X: 1}},
	}
	for _, f := range faces {
		base := len(m.Vertices)
		c := f.n.Scale(0.5)
		for _, s := range [][2]float64{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}} {
			p := c.Add(f.a.Scale(0.5 * s[0])).Add(f.b.Scale(0.5 * s[1]))
			m.Vertices = append(m.Vertices, Vertex{Pos: p, Normal: f.n})
		}
		m.Triangles = append(m.Triangles,
			[3]int{base, base + 1, base + 2},
			[3]int{base, base + 2, base + 3})
	}
	m.bound()
	return m
}

// sphere builds a UV sphere with the given subdivision counts.
func sphere(stacks, slices int) *Mesh {
	if stacks < 2 {
		stacks = 2
	}
	if slices < 3 {
		slices = 3
	}
	m := &Mesh{}
	for st := 0; st <= stacks; st++ {
		phi := math.Pi * float64(st) / float64(stacks)
		for sl := 0; sl <= slices; sl++ {
			theta := 2 * math.Pi * float64(sl) / float64(slices)
			n := mathx.Vec3{
				X: math.Sin(phi) * math.Cos(theta),
				Y: math.Sin(phi) * math.Sin(theta),
				Z: math.Cos(phi),
			}
			m.Vertices = append(m.Vertices, Vertex{Pos: n.Scale(0.5), Normal: n})
		}
	}
	cols := slices + 1
	for st := 0; st < stacks; st++ {
		for sl := 0; sl < slices; sl++ {
			a := st*cols + sl
			b := a + 1
			c := a + cols
			d := c + 1
			m.Triangles = append(m.Triangles, [3]int{a, c, b}, [3]int{b, c, d})
		}
	}
	m.bound()
	return m
}

// plane builds a subdivided quad in the XY plane facing +Z.
func plane(subdiv int) *Mesh {
	if subdiv < 1 {
		subdiv = 1
	}
	m := &Mesh{}
	for j := 0; j <= subdiv; j++ {
		for i := 0; i <= subdiv; i++ {
			m.Vertices = append(m.Vertices, Vertex{
				Pos: mathx.Vec3{
					X: float64(i)/float64(subdiv) - 0.5,
					Y: float64(j)/float64(subdiv) - 0.5,
				},
				Normal: mathx.Vec3{Z: 1},
			})
		}
	}
	cols := subdiv + 1
	for j := 0; j < subdiv; j++ {
		for i := 0; i < subdiv; i++ {
			a := j*cols + i
			b := a + 1
			c := a + cols
			d := c + 1
			m.Triangles = append(m.Triangles, [3]int{a, c, b}, [3]int{b, c, d})
		}
	}
	m.bound()
	return m
}

// column builds a fluted column (cylinder) mesh for the Sponza colonnade.
func column(segments int) *Mesh {
	if segments < 3 {
		segments = 3
	}
	m := &Mesh{}
	for i := 0; i <= segments; i++ {
		th := 2 * math.Pi * float64(i) / float64(segments)
		n := mathx.Vec3{X: math.Cos(th), Y: math.Sin(th)}
		m.Vertices = append(m.Vertices,
			Vertex{Pos: mathx.Vec3{X: 0.5 * n.X, Y: 0.5 * n.Y, Z: -0.5}, Normal: n},
			Vertex{Pos: mathx.Vec3{X: 0.5 * n.X, Y: 0.5 * n.Y, Z: 0.5}, Normal: n})
	}
	for i := 0; i < segments; i++ {
		a := 2 * i
		m.Triangles = append(m.Triangles,
			[3]int{a, a + 2, a + 1},
			[3]int{a + 1, a + 2, a + 3})
	}
	m.bound()
	return m
}

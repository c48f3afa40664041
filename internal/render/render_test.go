package render

import (
	"math"
	"testing"

	"illixr/internal/mathx"
)

func headPose() mathx.Pose {
	// standing at the loop start, facing +Y (along the walk)
	return mathx.Pose{
		Pos: mathx.Vec3{X: 2, Y: 0, Z: 1.6},
		Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, math.Pi/2),
	}
}

func TestMeshPrimitives(t *testing.T) {
	if got := box().triangleCount(); got != 12 {
		t.Errorf("box tris = %d", got)
	}
	sp := sphere(8, 12)
	if sp.triangleCount() != 8*12*2 {
		t.Errorf("sphere tris = %d", sp.triangleCount())
	}
	// all sphere normals unit and radial
	for _, v := range sp.Vertices {
		if math.Abs(v.Normal.Norm()-1) > 1e-9 {
			t.Fatal("non-unit sphere normal")
		}
		if v.Pos.Normalized().Sub(v.Normal).Norm() > 1e-9 {
			t.Fatal("sphere normal not radial")
		}
	}
	if plane(4).triangleCount() != 32 {
		t.Errorf("plane tris = %d", plane(4).triangleCount())
	}
	if column(16).triangleCount() != 32 {
		t.Errorf("column tris = %d", column(16).triangleCount())
	}
}

func TestMeshTransform(t *testing.T) {
	b := box().transform(at(1, 2, 3), mathx.Vec3{X: 2, Y: 2, Z: 2})
	// centroid should be at (1,2,3)
	var c mathx.Vec3
	for _, v := range b.Vertices {
		c = c.Add(v.Pos)
	}
	c = c.Scale(1 / float64(len(b.Vertices)))
	if c.Sub(mathx.Vec3{X: 1, Y: 2, Z: 3}).Norm() > 1e-9 {
		t.Errorf("centroid %v", c)
	}
}

func TestRendererDrawsSomething(t *testing.T) {
	for _, app := range AllApps {
		s := BuildScene(app, 42)
		r := NewRenderer(128, 96)
		fb := r.RenderFrame(s, headPose(), 0)
		lit := 0
		for _, v := range fb.Pix {
			if v > 0 {
				lit++
			}
		}
		if lit == 0 {
			t.Errorf("%s: empty framebuffer", app)
		}
		if r.Stats.TrianglesSubmitted == 0 || r.Stats.FragmentsShaded == 0 {
			t.Errorf("%s: no work recorded", app)
		}
	}
}

func TestComplexityOrdering(t *testing.T) {
	// The paper orders apps by rendering complexity: Sponza > Materials >
	// Platformer > AR demo. Verify with shading-weighted fragment cost
	// plus triangle count.
	cost := map[AppName]int{}
	for _, app := range AllApps {
		s := BuildScene(app, 42)
		r := NewRenderer(128, 96)
		// average over a few frames around the loop
		for i := 0; i < 4; i++ {
			tm := float64(i) * 2
			r.RenderFrame(s, loopPose(tm), tm)
		}
		cost[app] = r.Stats.ShadingCostWeight + 10*r.Stats.TrianglesSubmitted
	}
	if !(cost[AppSponza] > cost[AppMaterials] &&
		cost[AppMaterials] > cost[AppPlatformer] &&
		cost[AppPlatformer] > cost[AppARDemo]) {
		t.Errorf("complexity ordering violated: %v", cost)
	}
}

func TestZBufferOcclusion(t *testing.T) {
	// A near box must occlude a far box along the same ray.
	s := &Scene{
		Name:    "ztest",
		Ambient: 1,
		Instances: []*Instance{
			{Mesh: box().transform(at(3, 0, 1.6), mathx.Vec3{X: 1, Y: 1, Z: 1}),
				Material: Material{Albedo: [3]float32{1, 0, 0}, Model: shadeFlat}},
			{Mesh: box().transform(at(6, 0, 1.6), mathx.Vec3{X: 1, Y: 3, Z: 3}),
				Material: Material{Albedo: [3]float32{0, 1, 0}, Model: shadeFlat}},
		},
	}
	r := NewRenderer(64, 64)
	pose := mathx.Pose{Pos: mathx.Vec3{Z: 1.6}, Rot: mathx.QuatIdentity()} // looking +X
	fb := r.RenderFrame(s, pose, 0)
	cr, cg, _ := fb.At(32, 32)
	if cr <= cg {
		t.Errorf("far box visible through near box: r=%v g=%v", cr, cg)
	}
}

func TestAnimationChangesFrame(t *testing.T) {
	s := BuildScene(AppARDemo, 42)
	r := NewRenderer(96, 96)
	a := r.RenderFrame(s, headPose(), 0).Clone()
	b := r.RenderFrame(s, headPose(), 1.0)
	diff := 0
	for i := range a.Pix {
		if math.Abs(float64(a.Pix[i]-b.Pix[i])) > 1e-6 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("animated scene produced identical frames")
	}
}

func TestInputDependentCost(t *testing.T) {
	// Rendering cost must vary with view pose (input-dependence of the
	// application component, §IV-A1).
	s := BuildScene(AppSponza, 42)
	r1 := NewRenderer(96, 96)
	r1.RenderFrame(s, headPose(), 0)
	frag1 := r1.Stats.FragmentsShaded

	r2 := NewRenderer(96, 96)
	// look straight down at the floor
	down := mathx.Pose{
		Pos: mathx.Vec3{X: 2, Y: 0, Z: 1.6},
		Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Y: 1}, math.Pi/2),
	}
	r2.RenderFrame(s, down, 0)
	if frag1 == r2.Stats.FragmentsShaded {
		t.Error("cost identical across views")
	}
}

func TestSceneDeterminism(t *testing.T) {
	a := BuildScene(AppPlatformer, 7)
	b := BuildScene(AppPlatformer, 7)
	if a.TriangleCount() != b.TriangleCount() || len(a.Instances) != len(b.Instances) {
		t.Error("scene generation not deterministic")
	}
}

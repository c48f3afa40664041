package render

import (
	"math"
	"math/rand"

	"illixr/internal/mathx"
)

// AppName identifies one of the paper's four evaluation applications.
type AppName string

// The four applications of §III-C, in decreasing rendering complexity.
const (
	AppSponza     AppName = "sponza"
	AppMaterials  AppName = "materials"
	AppPlatformer AppName = "platformer"
	AppARDemo     AppName = "ar_demo"
)

// AllApps lists the applications in the paper's presentation order.
var AllApps = []AppName{AppSponza, AppMaterials, AppPlatformer, AppARDemo}

// BuildScene constructs the named application scene.
func BuildScene(app AppName, seed int64) *Scene {
	switch app {
	case AppSponza:
		return buildSponza(seed)
	case AppMaterials:
		return buildMaterials(seed)
	case AppPlatformer:
		return buildPlatformer(seed)
	case AppARDemo:
		return buildARDemo(seed)
	default:
		return buildARDemo(seed)
	}
}

func at(x, y, z float64) mathx.Pose {
	return mathx.Pose{Pos: mathx.Vec3{X: x, Y: y, Z: z}, Rot: mathx.QuatIdentity()}
}

// buildSponza approximates the Sponza atrium: a large floor, surrounding
// walls, two rings of columns, arches (boxes), and clutter — the highest
// polygon count of the four apps, with global-illumination-ish ambient.
func buildSponza(seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	s := &Scene{
		Name:    string(AppSponza),
		Ambient: 0.25,
		Lights: []Light{
			{Dir: mathx.Vec3{X: -0.3, Y: -0.4, Z: -0.85}, Color: [3]float32{1, 0.96, 0.9}},
			{Dir: mathx.Vec3{X: 0.6, Y: 0.2, Z: -0.77}, Color: [3]float32{0.25, 0.3, 0.4}},
		},
		PhysicsCost: 50,
	}
	stone := Material{Albedo: [3]float32{0.75, 0.68, 0.58}, Model: shadeBlinnPhong}
	floorMat := Material{Albedo: [3]float32{0.5, 0.45, 0.4}, Model: shadeBlinnPhong}
	// floor: finely subdivided plane (high vertex count)
	floor := plane(48).transform(at(0, 0, 0), mathx.Vec3{X: 9, Y: 9, Z: 1})
	s.Instances = append(s.Instances, &Instance{Mesh: floor, Material: floorMat, Name: "floor"})
	// walls
	for _, w := range []struct{ x, y, sx, sy float64 }{
		{4.5, 0, 0.3, 9}, {-4.5, 0, 0.3, 9}, {0, 4.5, 9, 0.3}, {0, -4.5, 9, 0.3},
	} {
		wall := box().transform(at(w.x, w.y, 1.5), mathx.Vec3{X: w.sx, Y: w.sy, Z: 3})
		s.Instances = append(s.Instances, &Instance{Mesh: wall, Material: stone, Name: "wall"})
	}
	// two stories of two rings of fluted columns (the atrium colonnade)
	for _, story := range []float64{1.4, 4.2} {
		for ring, radius := range []float64{2.8, 3.8} {
			n := 12 + ring*6
			for i := 0; i < n; i++ {
				th := 2 * math.Pi * float64(i) / float64(n)
				col := column(32).transform(
					at(radius*math.Cos(th), radius*math.Sin(th), story),
					mathx.Vec3{X: 0.25, Y: 0.25, Z: 2.8})
				s.Instances = append(s.Instances, &Instance{Mesh: col, Material: stone, Name: "column"})
				// capital (box) atop each column
				cap := box().transform(
					at(radius*math.Cos(th), radius*math.Sin(th), story+1.45),
					mathx.Vec3{X: 0.4, Y: 0.4, Z: 0.12})
				s.Instances = append(s.Instances, &Instance{Mesh: cap, Material: stone, Name: "capital"})
			}
		}
	}
	// draped fabric between columns (finely subdivided planes)
	for i := 0; i < 8; i++ {
		th := 2 * math.Pi * float64(i) / 8
		drape := plane(24).transform(
			mathx.Pose{
				Pos: mathx.Vec3{X: 3.3 * math.Cos(th), Y: 3.3 * math.Sin(th), Z: 2.4},
				Rot: mathx.QuatFromAxisAngle(mathx.Vec3{X: 1}, math.Pi/2).Mul(
					mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, th)),
			},
			mathx.Vec3{X: 1.4, Y: 1.2, Z: 1})
		s.Instances = append(s.Instances, &Instance{
			Mesh:     drape,
			Material: Material{Albedo: [3]float32{0.6, 0.15, 0.12}, Model: shadeBlinnPhong},
			Name:     "drape",
		})
	}
	// clutter: pots for extra triangles
	for i := 0; i < 20; i++ {
		x := rng.Float64()*7 - 3.5
		y := rng.Float64()*7 - 3.5
		if math.Hypot(x, y) < 2.2 {
			continue // keep the walking loop clear
		}
		pot := sphere(16, 20).transform(at(x, y, 0.25), mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5})
		s.Instances = append(s.Instances, &Instance{
			Mesh: pot,
			Material: Material{
				Albedo: [3]float32{0.4 + 0.4*float32(rng.Float64()), 0.3, 0.25},
				Model:  shadeBlinnPhong,
			},
			Name: "pot",
		})
	}
	return s
}

// buildMaterials: sphere-like objects with complex PBR materials
// (displacement mapping, subsurface scattering, anisotropic reflections in
// the original — modelled by the most expensive shading path).
func buildMaterials(seed int64) *Scene {
	s := &Scene{
		Name:    string(AppMaterials),
		Ambient: 0.2,
		Lights: []Light{
			{Dir: mathx.Vec3{X: -0.4, Y: -0.3, Z: -0.87}, Color: [3]float32{1, 1, 1}},
			{Dir: mathx.Vec3{X: 0.7, Y: 0.5, Z: -0.5}, Color: [3]float32{0.3, 0.25, 0.2}},
		},
		PhysicsCost: 20,
	}
	floor := plane(16).transform(at(0, 0, 0), mathx.Vec3{X: 9, Y: 9, Z: 1})
	s.Instances = append(s.Instances, &Instance{
		Mesh:     floor,
		Material: Material{Albedo: [3]float32{0.3, 0.3, 0.32}, Model: shadeLambert},
		Name:     "floor",
	})
	rng := rand.New(rand.NewSource(seed))
	// ring of PBR spheres around the walking loop
	n := 9
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		sp := sphere(24, 32).transform(
			at(3.1*math.Cos(th), 3.1*math.Sin(th), 1.2),
			mathx.Vec3{X: 0.9, Y: 0.9, Z: 0.9})
		s.Instances = append(s.Instances, &Instance{
			Mesh: sp,
			Material: Material{
				Albedo:    [3]float32{float32(0.4 + 0.5*rng.Float64()), float32(0.4 + 0.5*rng.Float64()), float32(0.4 + 0.5*rng.Float64())},
				Model:     shadePBR,
				Roughness: 0.1 + 0.8*rng.Float64(),
				Metallic:  rng.Float64(),
			},
			Name: "pbr_sphere",
		})
	}
	return s
}

// buildPlatformer: a maze of boxes with crab-like "enemies" (animated
// spheres) — physics and collisions dominate the app-side cost.
func buildPlatformer(seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	s := &Scene{
		Name:    string(AppPlatformer),
		Ambient: 0.3,
		Lights: []Light{
			{Dir: mathx.Vec3{X: -0.3, Y: -0.5, Z: -0.81}, Color: [3]float32{1, 1, 0.95}},
		},
		PhysicsCost: 200, // physics/collision heavy
	}
	floor := plane(8).transform(at(0, 0, 0), mathx.Vec3{X: 9, Y: 9, Z: 1})
	s.Instances = append(s.Instances, &Instance{
		Mesh:     floor,
		Material: Material{Albedo: [3]float32{0.35, 0.4, 0.3}, Model: shadeLambert},
		Name:     "floor",
	})
	// maze walls on a grid (leave the central loop clear)
	for gx := -4; gx <= 4; gx++ {
		for gy := -4; gy <= 4; gy++ {
			if rng.Float64() > 0.25 {
				continue
			}
			x := float64(gx)
			y := float64(gy)
			if math.Hypot(x, y) < 2.8 {
				continue
			}
			wall := box().transform(at(x, y, 0.5), mathx.Vec3{X: 0.9, Y: 0.9, Z: 1})
			s.Instances = append(s.Instances, &Instance{
				Mesh:     wall,
				Material: Material{Albedo: [3]float32{0.55, 0.5, 0.45}, Model: shadeLambert},
				Name:     "maze",
			})
		}
	}
	// enemies: animated spheres patrolling
	type enemy struct {
		inst  *Instance
		base  mathx.Vec3
		phase float64
	}
	var enemies []enemy
	for i := 0; i < 6; i++ {
		base := mathx.Vec3{
			X: rng.Float64()*6 - 3,
			Y: rng.Float64()*6 - 3,
			Z: 0.4,
		}
		inst := &Instance{
			Mesh:     sphere(10, 12).transform(at(base.X, base.Y, base.Z), mathx.Vec3{X: 0.6, Y: 0.6, Z: 0.4}),
			Material: Material{Albedo: [3]float32{0.8, 0.25, 0.2}, Model: shadeBlinnPhong},
			Name:     "enemy",
		}
		s.Instances = append(s.Instances, inst)
		enemies = append(enemies, enemy{inst: inst, base: base, phase: rng.Float64() * 2 * math.Pi})
	}
	proto := sphere(10, 12)
	s.Update = func(sc *Scene, t float64) {
		for i := range enemies {
			e := &enemies[i]
			p := e.base
			p.X += 0.8 * math.Cos(t*1.3+e.phase)
			p.Y += 0.8 * math.Sin(t*0.9+e.phase)
			proto.transformInto(e.inst.Mesh, at(p.X, p.Y, p.Z), mathx.Vec3{X: 0.6, Y: 0.6, Z: 0.4})
		}
	}
	return s
}

// buildARDemo: a single light, a few stationary virtual objects and one
// animated ball overlaid on the (passthrough) world — sparsest graphics.
func buildARDemo(seed int64) *Scene {
	s := &Scene{
		Name:    string(AppARDemo),
		Ambient: 0.35,
		Lights: []Light{
			{Dir: mathx.Vec3{X: -0.4, Y: -0.3, Z: -0.87}, Color: [3]float32{1, 1, 1}},
		},
		PhysicsCost: 30,
	}
	// a few floating widgets
	for i, p := range []mathx.Vec3{
		{X: 2.5, Y: 0.5, Z: 1.4}, {X: -1.5, Y: 2.0, Z: 1.1}, {X: 0.5, Y: -2.4, Z: 1.7},
	} {
		box := box().transform(mathx.Pose{Pos: p, Rot: mathx.QuatIdentity()},
			mathx.Vec3{X: 0.3, Y: 0.3, Z: 0.3})
		s.Instances = append(s.Instances, &Instance{
			Mesh: box,
			Material: Material{
				Albedo: [3]float32{0.2 + 0.2*float32(i), 0.5, 0.9 - 0.2*float32(i)},
				Model:  shadeLambert,
			},
			Name: "widget",
		})
	}
	ball := &Instance{
		Mesh:     sphere(12, 16).transform(at(1, 1, 1), mathx.Vec3{X: 0.25, Y: 0.25, Z: 0.25}),
		Material: Material{Albedo: [3]float32{0.95, 0.8, 0.2}, Model: shadeBlinnPhong},
		Name:     "ball",
	}
	s.Instances = append(s.Instances, ball)
	proto := sphere(12, 16)
	s.Update = func(sc *Scene, t float64) {
		// bouncing ball
		z := 0.4 + math.Abs(math.Sin(t*2.5))*1.1
		x := 1 + 0.8*math.Cos(t*0.7)
		y := 1 + 0.8*math.Sin(t*0.7)
		proto.transformInto(ball.Mesh, at(x, y, z), mathx.Vec3{X: 0.25, Y: 0.25, Z: 0.25})
	}
	_ = seed
	return s
}

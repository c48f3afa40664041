package render

import (
	"math"
	"math/rand"
	"testing"

	"illixr/internal/mathx"
)

// TestPowMatchesMathPow pins shade's exact-squaring powers to the math.Pow
// calls they replace, as shade uses them: pow32(ndh) through its float32
// conversion, and bit for bit wherever Pow's result is normal; pow5 bit for
// bit on 1-ndh and wherever Pow's result is normal.
func TestPowMatchesMathPow(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(26))
	check := func(x float64) {
		want32 := math.Pow(x, 32)
		got32 := pow32(x)
		if math.Float32bits(float32(got32)) != math.Float32bits(float32(want32)) ||
			(want32 >= 0x1p-1022 && math.Float64bits(got32) != math.Float64bits(want32)) {
			t.Fatalf("pow32(%v) = %v (%x), math.Pow = %v (%x)", x, got32, math.Float64bits(got32), want32, math.Float64bits(want32))
		}
		if want5, got5 := math.Pow(x, 5), pow5(x); want5 >= 0x1p-1022 && math.Float64bits(got5) != math.Float64bits(want5) {
			t.Fatalf("pow5(%v) = %v, math.Pow = %v", x, got5, want5)
		}
		// shade's Fresnel argument is 1-ndh: 0 or at least 2⁻⁵³, so the
		// fifth power is 0 or normal and must match everywhere
		y := 1 - x
		if want5, got5 := math.Pow(y, 5), pow5(y); math.Float64bits(got5) != math.Float64bits(want5) {
			t.Fatalf("pow5(1-%v) = %v, math.Pow = %v", x, got5, want5)
		}
	}
	for _, x := range []float64{0, 1, math.Nextafter(1, 0), 0.5, 0x1p-53, math.SmallestNonzeroFloat64} {
		check(x)
	}
	for i := 0; i < n; i++ {
		x := rng.Float64()
		check(x)
		// the same mantissas scaled through the subnormal range, where
		// x³² leaves the normal range first
		if i%8 == 0 {
			check(math.Ldexp(x, -rng.Intn(1100)))
		}
	}
}

// skipPoses are the views TestFrustumSkipKeepsSetUp sets up each scene from:
// the walking loop, straight up and down, a camera inside each instance's
// geometry (so instances straddle the near plane), one a few centimetres in
// front of it, and random poses through the whole room.
func skipPoses(s *Scene, n int, rng *rand.Rand) []mathx.Pose {
	var poses []mathx.Pose
	for i := 0; i < n/4; i++ {
		poses = append(poses, loopPose(float64(i)*0.175)) // once round the loop
	}
	pitch := func(p mathx.Vec3, yaw, pitch float64) mathx.Pose {
		return mathx.Pose{Pos: p, Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, yaw).Mul(
			mathx.QuatFromAxisAngle(mathx.Vec3{Y: 1}, pitch))}
	}
	for i := 0; i < 8; i++ {
		p := loopPose(float64(i)).Pos
		poses = append(poses, pitch(p, float64(i), math.Pi/2), pitch(p, float64(i), -math.Pi/2))
	}
	for i := 0; len(poses) < n; i++ {
		yaw, pt := rng.Float64()*2*math.Pi, (rng.Float64()-0.5)*math.Pi
		if i%2 == 0 && len(s.Instances) > 0 {
			m := s.Instances[rng.Intn(len(s.Instances))].Mesh
			v := m.Vertices[rng.Intn(len(m.Vertices))].Pos
			// inside the instance, or just in front of one of its vertices
			at := m.center.Add(v.Sub(m.center).Scale(rng.Float64() * 1.02))
			poses = append(poses, pitch(at, yaw, pt))
			continue
		}
		at := mathx.Vec3{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5, Z: rng.Float64() * 6}
		poses = append(poses, pitch(at, yaw, pt))
	}
	return poses
}

// TestFrustumSkipKeepsSetUp holds the instance skip to its contract: the
// set-up triangle list (every field, in order) and FrameStats equal those
// of a reference that sets up every instance, for all four apps over 480
// poses each at the benchmark's and the goldens' resolutions. The reference
// is the same scene with each mesh re-wrapped as a literal, which has no
// bound and so must never be skipped, even where its constructed twin is.
func TestFrustumSkipKeepsSetUp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, app := range AllApps {
		for _, size := range [][2]int{{320, 180}, {160, 90}} {
			s := BuildScene(app, 42)
			r := NewRenderer(size[0], size[1])
			ref := NewRenderer(size[0], size[1])
			skipped, instances := 0, 0
			for i, pose := range skipPoses(s, 480, rng) {
				tm := float64(i) / 120
				if s.Update != nil {
					s.Update(s, tm)
				}
				lit := Scene{Lights: s.Lights, Ambient: s.Ambient}
				for _, in := range s.Instances {
					lit.Instances = append(lit.Instances, &Instance{
						Mesh:     &Mesh{Vertices: in.Mesh.Vertices, Triangles: in.Mesh.Triangles},
						Material: in.Material,
					})
				}
				r.setUp(s, pose)
				ref.setUp(&lit, pose)
				for k, in := range s.Instances {
					if r.skips(in.Mesh) {
						skipped++
					}
					if ref.skips(lit.Instances[k].Mesh) {
						t.Fatalf("%s pose %d: literal mesh of instance %d skipped", app, i, k)
					}
				}
				instances += len(s.Instances)
				if r.Stats != ref.Stats || len(r.tris) != len(ref.tris) {
					t.Fatalf("%s %dx%d pose %d: stats %+v, %d triangles; reference %+v, %d triangles",
						app, size[0], size[1], i, r.Stats, len(r.tris), ref.Stats, len(ref.tris))
				}
				for k := range r.tris {
					a, b := r.tris[k], ref.tris[k]
					if *a.mat != *b.mat {
						t.Fatalf("%s pose %d triangle %d: material %+v, reference %+v", app, i, k, *a.mat, *b.mat)
					}
					a.mat, b.mat = nil, nil
					if a != b {
						t.Fatalf("%s pose %d triangle %d: %+v, reference %+v", app, i, k, a, b)
					}
				}
			}
			if skipped == 0 {
				t.Errorf("%s %dx%d: no instance skipped in %d set-ups", app, size[0], size[1], instances)
			}
			t.Logf("%s %dx%d: %d of %d instance set-ups skipped", app, size[0], size[1], skipped, instances)
		}
	}
}

package sensors

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"illixr/internal/imgproc"
	"illixr/internal/mathx"
)

// Landmark is a static 3D feature point in the world.
type Landmark struct {
	ID  int
	Pos mathx.Vec3
}

// FeatureObs is an observed landmark in one camera frame: pixel
// coordinates plus the landmark identity (the identity simulates a perfect
// descriptor match; the VIO image front-end ignores it and re-associates
// via KLT).
type FeatureObs struct {
	ID   int
	U, V float64
}

// World holds the static environment: visual landmarks on the walls of a
// room plus solid geometry (the room box and a few spheres) used for depth
// rendering.
type World struct {
	Landmarks []Landmark
	// Room half-extents around the origin and wall height.
	RoomHalfX, RoomHalfY, RoomHeight float64
	Spheres                          []Sphere
}

// Sphere is a solid ball used by the depth renderer.
type Sphere struct {
	Center mathx.Vec3
	Radius float64
}

// NewRoomWorld builds a room of the given half-extents, scattering n
// landmarks over its walls, floor and ceiling, plus a few interior
// spheres, all deterministically from the seed.
func NewRoomWorld(n int, seed int64) *World {
	rng := rand.New(rand.NewSource(seed))
	w := &World{
		RoomHalfX: 4, RoomHalfY: 4, RoomHeight: 3,
		Spheres: []Sphere{
			{Center: mathx.Vec3{X: 1.5, Y: 1.0, Z: 1.0}, Radius: 0.5},
			{Center: mathx.Vec3{X: -2.0, Y: -1.5, Z: 0.8}, Radius: 0.8},
			{Center: mathx.Vec3{X: 0.5, Y: -2.5, Z: 1.6}, Radius: 0.4},
		},
	}
	w.Landmarks = make([]Landmark, n)
	for i := 0; i < n; i++ {
		// pick one of 6 faces of the room box
		face := rng.Intn(6)
		u := rng.Float64()*2 - 1
		v := rng.Float64()*2 - 1
		var p mathx.Vec3
		switch face {
		case 0:
			p = mathx.Vec3{X: w.RoomHalfX, Y: u * w.RoomHalfY, Z: (v + 1) / 2 * w.RoomHeight}
		case 1:
			p = mathx.Vec3{X: -w.RoomHalfX, Y: u * w.RoomHalfY, Z: (v + 1) / 2 * w.RoomHeight}
		case 2:
			p = mathx.Vec3{X: u * w.RoomHalfX, Y: w.RoomHalfY, Z: (v + 1) / 2 * w.RoomHeight}
		case 3:
			p = mathx.Vec3{X: u * w.RoomHalfX, Y: -w.RoomHalfY, Z: (v + 1) / 2 * w.RoomHeight}
		case 4:
			p = mathx.Vec3{X: u * w.RoomHalfX, Y: v * w.RoomHalfY, Z: 0}
		default:
			p = mathx.Vec3{X: u * w.RoomHalfX, Y: v * w.RoomHalfY, Z: w.RoomHeight}
		}
		w.Landmarks[i] = Landmark{ID: i, Pos: p}
	}
	return w
}

// VisibleFeatures projects all landmarks into the camera at the given body
// pose, adds pixel noise, and returns the observations. maxFeatures limits
// the count (0 = unlimited); nearest (smallest depth) features win.
// GenerateDataset takes the same three steps, one frame per call of each.
func (w *World) VisibleFeatures(cam CameraModel, bodyPose mathx.Pose, pixelNoise float64, maxFeatures int, rng *rand.Rand) []FeatureObs {
	cands := w.project(nil, cam, bodyPose)
	cands = addPixelNoise(cands, cam, pixelNoise, rng)
	return nearest(cands, maxFeatures)
}

// featureCand is a landmark seen in one frame, with the depth that decides
// whether it survives the frame's feature cap.
type featureCand struct {
	obs   FeatureObs
	depth float64
}

// project appends to dst, in landmark order, every landmark that projects
// into the image at bodyPose. The pose is inverted once for the frame. It
// draws nothing, so frames may be projected on any goroutine.
func (w *World) project(dst []featureCand, cam CameraModel, bodyPose mathx.Pose) []featureCand {
	inv := bodyPose.Inverse()
	for _, lm := range w.Landmarks {
		pc := camFromBody.Rotate(inv.Apply(lm.Pos))
		u, v, ok := cam.Project(pc)
		if !ok {
			continue
		}
		dst = append(dst, featureCand{FeatureObs{ID: lm.ID, U: u, V: v}, pc.Z})
	}
	return dst
}

// addPixelNoise perturbs each candidate by two draws from rng, in order,
// and keeps (in place) those still inside the image. Without noise it
// returns cands as they are: project kept only in-image pixels.
func addPixelNoise(cands []featureCand, cam CameraModel, pixelNoise float64, rng *rand.Rand) []featureCand {
	if !(pixelNoise > 0) || rng == nil {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		c.obs.U += rng.NormFloat64() * pixelNoise
		c.obs.V += rng.NormFloat64() * pixelNoise
		if c.obs.U < 0 || c.obs.V < 0 || c.obs.U >= float64(cam.Width) || c.obs.V >= float64(cam.Height) {
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// nearest returns the observations, capped at the maxFeatures nearest
// (0 = all; they carry the most parallax information). Equal depths keep
// landmark order.
func nearest(cands []featureCand, maxFeatures int) []FeatureObs {
	if maxFeatures > 0 && len(cands) > maxFeatures {
		slices.SortStableFunc(cands, func(a, b featureCand) int { return cmp.Compare(a.depth, b.depth) })
		cands = cands[:maxFeatures]
	}
	out := make([]FeatureObs, len(cands))
	for i, c := range cands {
		out[i] = c.obs
	}
	return out
}

// RenderFeatureImage draws the observed features into a grayscale image as
// small Gaussian blobs over a low-intensity background gradient, giving
// the FAST/KLT front end realistic (trackable) input.
func RenderFeatureImage(cam CameraModel, feats []FeatureObs) *imgproc.Gray {
	img := imgproc.NewGray(cam.Width, cam.Height)
	// mild background gradient so the image is not perfectly flat
	for y := 0; y < cam.Height; y++ {
		for x := 0; x < cam.Width; x++ {
			img.Pix[y*cam.Width+x] = 0.1 + 0.05*float32(x)/float32(cam.Width)
		}
	}
	const radius = 3
	const sigma = 1.2
	for _, f := range feats {
		cx := int(f.U + 0.5)
		cy := int(f.V + 0.5)
		for dy := -radius; dy <= radius; dy++ {
			for dx := -radius; dx <= radius; dx++ {
				x := cx + dx
				y := cy + dy
				if x < 0 || y < 0 || x >= cam.Width || y >= cam.Height {
					continue
				}
				fx := f.U - float64(x)
				fy := f.V - float64(y)
				v := float32(0.8 * math.Exp(-(fx*fx+fy*fy)/(2*sigma*sigma)))
				i := y*cam.Width + x
				if img.Pix[i] < 0.1+v {
					img.Pix[i] = 0.1 + v
				}
			}
		}
	}
	return img
}

// RenderDepth ray-casts the room geometry from the given body pose,
// producing a depth image (meters; 0 = no hit) and the corresponding RGB
// shading for reconstruction. Resolution follows the camera model.
func (w *World) RenderDepth(cam CameraModel, bodyPose mathx.Pose) (*imgproc.Gray, *imgproc.RGB) {
	depth := imgproc.NewGray(cam.Width, cam.Height)
	rgb := imgproc.NewRGB(cam.Width, cam.Height)
	camRot := CamFromBody().Inverse() // camera frame -> body frame
	for y := 0; y < cam.Height; y++ {
		for x := 0; x < cam.Width; x++ {
			rayCam := cam.normalizedRay(float64(x)+0.5, float64(y)+0.5)
			rayWorld := bodyPose.ApplyDir(camRot.Rotate(rayCam))
			origin := bodyPose.Pos
			t, normal, material := w.castRay(origin, rayWorld)
			if t <= 0 {
				continue
			}
			// depth is the Z coordinate in the camera frame
			hit := origin.Add(rayWorld.Scale(t))
			pc := WorldPointToCam(bodyPose, hit)
			depth.Set(x, y, float32(pc.Z))
			// Lambertian shading from a fixed light direction
			light := mathx.Vec3{X: 0.3, Y: 0.5, Z: 0.81}.Normalized()
			lam := mathx.Clamp(normal.Dot(light), 0, 1)
			shade := float32(0.2 + 0.8*lam)
			r, g, b := material[0]*shade, material[1]*shade, material[2]*shade
			rgb.Set(x, y, r, g, b)
		}
	}
	return depth, rgb
}

// castRay intersects a world ray with the room box interior and the
// spheres, returning the nearest positive hit distance, surface normal and
// material color.
func (w *World) castRay(origin, dir mathx.Vec3) (float64, mathx.Vec3, [3]float32) {
	bestT := math.Inf(1)
	var bestN mathx.Vec3
	var bestM [3]float32

	// room interior: intersect each of the 6 planes from inside
	type plane struct {
		n mathx.Vec3
		d float64 // plane: n·p = d
		m [3]float32
	}
	planes := []plane{
		{mathx.Vec3{X: -1}, -w.RoomHalfX, [3]float32{0.8, 0.6, 0.5}},
		{mathx.Vec3{X: 1}, -w.RoomHalfX, [3]float32{0.6, 0.8, 0.5}},
		{mathx.Vec3{Y: -1}, -w.RoomHalfY, [3]float32{0.5, 0.6, 0.8}},
		{mathx.Vec3{Y: 1}, -w.RoomHalfY, [3]float32{0.8, 0.5, 0.6}},
		{mathx.Vec3{Z: 1}, 0, [3]float32{0.4, 0.4, 0.4}},
		{mathx.Vec3{Z: -1}, -w.RoomHeight, [3]float32{0.9, 0.9, 0.9}},
	}
	for _, pl := range planes {
		denom := pl.n.Dot(dir)
		if math.Abs(denom) < 1e-9 {
			continue
		}
		t := (pl.d - pl.n.Dot(origin)) / denom
		if t <= 1e-6 || t >= bestT {
			continue
		}
		// confirm hit stays within the room bounds (with slack)
		p := origin.Add(dir.Scale(t))
		if math.Abs(p.X) <= w.RoomHalfX+1e-6 && math.Abs(p.Y) <= w.RoomHalfY+1e-6 &&
			p.Z >= -1e-6 && p.Z <= w.RoomHeight+1e-6 {
			bestT = t
			bestN = pl.n
			bestM = pl.m
		}
	}
	// spheres
	for _, s := range w.Spheres {
		oc := origin.Sub(s.Center)
		b := oc.Dot(dir)
		c := oc.NormSq() - s.Radius*s.Radius
		disc := b*b - c
		if disc < 0 {
			continue
		}
		t := -b - math.Sqrt(disc)
		if t <= 1e-6 || t >= bestT {
			continue
		}
		bestT = t
		p := origin.Add(dir.Scale(t))
		bestN = p.Sub(s.Center).Normalized()
		bestM = [3]float32{0.9, 0.4, 0.3}
	}
	if math.IsInf(bestT, 1) {
		return -1, mathx.Vec3{}, [3]float32{}
	}
	return bestT, bestN, bestM
}

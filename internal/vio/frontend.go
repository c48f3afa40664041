package vio

import (
	"sort"

	"illixr/internal/imgproc"
	"illixr/internal/sensors"
)

// Frontend turns raw camera data into persistent feature tracks in
// normalized image coordinates. Two implementations exist, mirroring the
// paper's interchangeable-component design (§II-B): a geometric front end
// (descriptor-matching analogue driven by landmark identities, fast and
// used in integrated runs) and an image front end (FAST + pyramidal KLT on
// rendered images, used for standalone characterization where the image
// tasks of Table VI must actually execute).
type Frontend interface {
	// Process ingests one camera frame and returns the live tracked
	// features plus front-end work statistics. The features may be the
	// front end's own memory, valid until the next call.
	Process(frame sensors.CameraFrame) ([]TrackedFeature, FrontendStats)
}

// FrontendStats counts front-end work for the performance model.
type FrontendStats struct {
	Detected int
	Tracked  int
	Pixels   int
}

// GeometricFrontend uses the dataset's landmark identities as perfect
// descriptor matches, converting pixel observations into normalized
// coordinates. It simulates a descriptor front end with ideal association.
type GeometricFrontend struct {
	Cam      sensors.CameraModel
	MaxFeats int
	// seen holds the IDs alive last frame (for detect-vs-track
	// accounting) and nowSeen this frame's; the two swap each frame.
	seen, nowSeen map[int]bool
	out           []TrackedFeature
}

// NewGeometricFrontend builds a geometric front end for the given camera.
func NewGeometricFrontend(cam sensors.CameraModel, maxFeats int) *GeometricFrontend {
	return &GeometricFrontend{Cam: cam, MaxFeats: maxFeats, seen: map[int]bool{}, nowSeen: map[int]bool{}}
}

// Process implements Frontend. The returned slice is the front end's own,
// valid until the next call.
func (f *GeometricFrontend) Process(frame sensors.CameraFrame) ([]TrackedFeature, FrontendStats) {
	feats := frame.Features
	if f.MaxFeats > 0 && len(feats) > f.MaxFeats {
		feats = feats[:f.MaxFeats]
	}
	out := f.out[:0]
	stats := FrontendStats{}
	nowSeen := f.nowSeen
	clear(nowSeen)
	for _, obs := range feats {
		p := f.Cam.Unproject(obs.U, obs.V, 1)
		out = append(out, TrackedFeature{ID: obs.ID, XN: p.X, YN: p.Y})
		nowSeen[obs.ID] = true
		if f.seen[obs.ID] {
			stats.Tracked++
		} else {
			stats.Detected++
		}
	}
	f.seen, f.nowSeen = nowSeen, f.seen
	f.out = out
	return out, stats
}

// ImageFrontend runs FAST-9 detection and pyramidal KLT tracking on real
// images, assigning its own persistent track IDs.
type ImageFrontend struct {
	Cam       sensors.CameraModel
	Params    Params
	nextID    int
	prevPyr   *imgproc.Pyramid
	prevPts   [][2]float64
	prevIDs   []int
	kltParams imgproc.KLTParams
}

// NewImageFrontend builds an image front end.
func NewImageFrontend(cam sensors.CameraModel, p Params) *ImageFrontend {
	kp := imgproc.DefaultKLTParams()
	kp.PyramidLevels = p.KLT.PyramidLevels
	return &ImageFrontend{Cam: cam, Params: p, nextID: 1, kltParams: kp}
}

// ProcessImage ingests a grayscale image directly.
func (f *ImageFrontend) ProcessImage(img *imgproc.Gray) ([]TrackedFeature, FrontendStats) {
	stats := FrontendStats{Pixels: img.W * img.H}
	pyr := imgproc.BuildPyramid(img, f.Params.KLT.PyramidLevels)

	var pts [][2]float64
	var ids []int
	// 1) track existing features forward (feature matching)
	if f.prevPyr != nil && len(f.prevPts) > 0 {
		results := imgproc.KLTTrack(f.prevPyr, pyr, f.prevPts, f.kltParams)
		for i, r := range results {
			if !r.OK {
				continue
			}
			pts = append(pts, [2]float64{r.X, r.Y})
			ids = append(ids, f.prevIDs[i])
			stats.Tracked++
		}
	}
	// 2) top up with new detections away from existing tracks
	need := f.Params.MaxFeatures - len(pts)
	if need > 0 {
		corners := imgproc.FAST9(img, f.Params.KLT.FASTThreshold, 0)
		corners = imgproc.GridFilter(corners, img.W, img.H, f.Params.GridCell)
		sort.Slice(corners, func(i, j int) bool { return corners[i].Score > corners[j].Score })
		const minDist2 = 15 * 15
		for _, c := range corners {
			if need <= 0 {
				break
			}
			tooClose := false
			for _, p := range pts {
				dx := p[0] - float64(c.X)
				dy := p[1] - float64(c.Y)
				if dx*dx+dy*dy < minDist2 {
					tooClose = true
					break
				}
			}
			if tooClose {
				continue
			}
			pts = append(pts, [2]float64{float64(c.X), float64(c.Y)})
			ids = append(ids, f.nextID)
			f.nextID++
			need--
			stats.Detected++
		}
	}
	if f.prevPyr != nil {
		// recycle the outgoing pyramid's derived levels (Levels[0] aliases
		// the previous caller-owned image and is left alone)
		imgproc.ReleasePyramid(f.prevPyr)
	}
	f.prevPyr = pyr
	f.prevPts = pts
	f.prevIDs = ids

	out := make([]TrackedFeature, len(pts))
	for i := range pts {
		p := f.Cam.Unproject(pts[i][0], pts[i][1], 1)
		out[i] = TrackedFeature{ID: ids[i], XN: p.X, YN: p.Y}
	}
	return out, stats
}

// Process implements Frontend by rendering the frame's features into a
// synthetic image and running the full image pipeline on it.
func (f *ImageFrontend) Process(frame sensors.CameraFrame) ([]TrackedFeature, FrontendStats) {
	img := sensors.RenderFeatureImage(f.Cam, frame.Features)
	return f.ProcessImage(img)
}

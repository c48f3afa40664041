package eyetrack

import (
	"math"
	"math/rand"

	"illixr/internal/imgproc"
)

// Segmentation classes.
const (
	classBackground = 0 // skin / eyelid
	classSclera     = 1
	classIris       = 2
	classPupil      = 3
)

// Nominal per-class intensities of the synthetic eye images.
const (
	intensitySkin   = 0.75
	intensitySclera = 0.95
	intensityIris   = 0.45
	intensityPupil  = 0.10
)

// EyeImage is a synthetic eye picture with ground truth.
type EyeImage struct {
	Img *imgproc.Gray
	// GazeX, GazeY is the true pupil center in pixels.
	GazeX, GazeY float64
	// Truth holds the per-pixel ground-truth class.
	Truth []uint8
}

// SynthEyeImage renders an OpenEDS-style eye: bright sclera, iris disk and
// dark pupil at a gaze-dependent position, eyelid occlusion at top and
// bottom, plus optional sensor noise.
func SynthEyeImage(w, h int, gazeX, gazeY, noise float64, seed int64) *EyeImage {
	rng := rand.New(rand.NewSource(seed))
	img := imgproc.NewGray(w, h)
	truth := make([]uint8, w*h)
	cx := float64(w)/2 + gazeX*float64(w)/4
	cy := float64(h)/2 + gazeY*float64(h)/4
	irisR := float64(h) * 0.32
	pupilR := float64(h) * 0.13
	lid := float64(h) * 0.18 // eyelid band
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx := float64(x)
			fy := float64(y)
			var v float64
			var cls uint8
			d := math.Hypot(fx-cx, fy-cy)
			switch {
			case fy < lid || fy > float64(h)-lid:
				v = intensitySkin
				cls = classBackground
			case d < pupilR:
				v = intensityPupil
				cls = classPupil
			case d < irisR:
				v = intensityIris
				cls = classIris
			default:
				v = intensitySclera
				cls = classSclera
			}
			if noise > 0 {
				v += rng.NormFloat64() * noise
			}
			img.Set(x, y, float32(math.Max(0, math.Min(1, v))))
			truth[y*w+x] = cls
		}
	}
	return &EyeImage{Img: img, GazeX: cx, GazeY: cy, Truth: truth}
}

// buildSegNet constructs the analytic segmentation network: a smoothing
// encoder producing threshold features g(t) = relu(s − t), a pooled stage
// (the encoder bottleneck), a decoder upsample, and a 1×1 classification
// head whose linear combinations implement intensity binning into the four
// classes.
func buildSegNet() *Net {
	// conv1: 1→4 channels, 3×3 box smoothing with biases (0, −0.3, −0.6,
	// −0.85) + ReLU ⇒ channels carry s, g(.3), g(.6), g(.85).
	conv1 := newConv2D(1, 4, 3, true)
	thresh := []float32{0, -0.3, -0.6, -0.85}
	for o := 0; o < 4; o++ {
		for ky := 0; ky < 3; ky++ {
			for kx := 0; kx < 3; kx++ {
				conv1.setW(o, 0, ky, kx, 1.0/9.0)
			}
		}
		conv1.B[o] = thresh[o]
	}
	// conv2: 4→8 identity pass-through in the pooled domain (extra
	// capacity channels are zero), ReLU.
	conv2 := newConv2D(4, 8, 3, true)
	for o := 0; o < 4; o++ {
		conv2.setW(o, o, 1, 1, 1)
	}
	// head: 1×1 conv 8→4 class scores via intensity binning.
	head := newConv2D(8, 4, 1, false)
	// scores: background(skin), sclera, iris, pupil
	// pupil  = 1 − 30·g(.3)
	head.B[classPupil] = 1
	head.setW(classPupil, 1, 0, 0, -30)
	// iris   = 30·g(.3) − 60·g(.6)
	head.setW(classIris, 1, 0, 0, 30)
	head.setW(classIris, 2, 0, 0, -60)
	// skin   = 32·g(.6) − 64·g(.85)
	head.setW(classBackground, 2, 0, 0, 32)
	head.setW(classBackground, 3, 0, 0, -64)
	// sclera = 160·g(.85)
	head.setW(classSclera, 3, 0, 0, 160)
	return &Net{Layers: []Layer{
		conv1,
		maxPool2{},
		conv2,
		upsample2{},
		head,
	}}
}

// Result is one eye-tracking inference output.
type Result struct {
	// Gaze is the pupil centroid in pixels; Valid is false when no pupil
	// pixels were found (blink / occlusion).
	GazeX, GazeY float64
	Valid        bool
	// Classes is the per-pixel argmax segmentation.
	Classes []uint8
	Stats   Stats
}

// Tracker wraps the network with pre/post-processing.
type Tracker struct {
	Net *Net
}

// NewTracker builds the default analytic tracker.
func NewTracker() *Tracker { return &Tracker{Net: buildSegNet()} }

// Track segments one eye image and extracts the gaze point.
func (t *Tracker) Track(img *imgproc.Gray) Result {
	scores, stats := t.Net.forward(fromGray(img))
	res := Result{Classes: make([]uint8, img.W*img.H), Stats: stats}
	var sumX, sumY, n float64
	for y := 0; y < img.H && y < scores.H; y++ {
		for x := 0; x < img.W && x < scores.W; x++ {
			best := 0
			bestV := scores.at(0, y, x)
			for c := 1; c < scores.C; c++ {
				if v := scores.at(c, y, x); v > bestV {
					best, bestV = c, v
				}
			}
			res.Classes[y*img.W+x] = uint8(best)
			if best == classPupil {
				sumX += float64(x)
				sumY += float64(y)
				n++
			}
		}
	}
	if n > 0 {
		res.GazeX = sumX / n
		res.GazeY = sumY / n
		res.Valid = true
	}
	return res
}

// TrackBoth runs inference for both eyes (batch size 2, as in the paper).
func (t *Tracker) TrackBoth(left, right *imgproc.Gray) (Result, Result) {
	return t.Track(left), t.Track(right)
}

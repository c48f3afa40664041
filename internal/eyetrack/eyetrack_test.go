package eyetrack

import (
	"math"
	"testing"
)

func TestSynthEyeImageStructure(t *testing.T) {
	e := SynthEyeImage(64, 48, 0, 0, 0, 1)
	// pupil center dark, sclera bright, lid mid
	if e.Img.At(32, 24) > 0.2 {
		t.Errorf("pupil not dark: %v", e.Img.At(32, 24))
	}
	if e.Img.At(2, 24) < 0.9 {
		t.Errorf("sclera not bright: %v", e.Img.At(2, 24))
	}
	if v := e.Img.At(32, 2); math.Abs(float64(v)-intensitySkin) > 1e-5 {
		t.Errorf("lid = %v", v)
	}
	// truth consistent
	if e.Truth[24*64+32] != classPupil {
		t.Error("truth center not pupil")
	}
}

func TestSegNetSegmentsCleanImage(t *testing.T) {
	e := SynthEyeImage(64, 48, 0, 0, 0, 1)
	tr := NewTracker()
	res := tr.Track(e.Img)
	if !res.Valid {
		t.Fatal("no pupil found")
	}
	for _, class := range []uint8{classPupil, classIris, classSclera, classBackground} {
		iou := IoU(res.Classes, e.Truth, class)
		if iou < 0.6 {
			t.Errorf("class %d IoU %.2f", class, iou)
		}
	}
}

func TestGazeAccuracyAcrossPositions(t *testing.T) {
	tr := NewTracker()
	for _, g := range [][2]float64{{0, 0}, {0.4, 0.2}, {-0.3, -0.1}, {0.2, -0.3}} {
		e := SynthEyeImage(80, 60, g[0], g[1], 0.02, 7)
		res := tr.Track(e.Img)
		if !res.Valid {
			t.Fatalf("gaze %v: no pupil", g)
		}
		err := math.Hypot(res.GazeX-e.GazeX, res.GazeY-e.GazeY)
		if err > 3 {
			t.Errorf("gaze %v: centroid error %.2f px", g, err)
		}
	}
}

func TestTrackerHandlesNoise(t *testing.T) {
	tr := NewTracker()
	e := SynthEyeImage(64, 48, 0.1, 0, 0.08, 3)
	res := tr.Track(e.Img)
	if !res.Valid {
		t.Fatal("noisy image lost pupil")
	}
	if math.Hypot(res.GazeX-e.GazeX, res.GazeY-e.GazeY) > 4 {
		t.Errorf("noisy gaze error %.2f", math.Hypot(res.GazeX-e.GazeX, res.GazeY-e.GazeY))
	}
}

func TestBlankImageInvalid(t *testing.T) {
	e := SynthEyeImage(64, 48, 0, 0, 0, 1)
	// all-bright image: no pupil pixels
	for i := range e.Img.Pix {
		e.Img.Pix[i] = 0.95
	}
	res := NewTracker().Track(e.Img)
	if res.Valid {
		t.Error("blank image reported a gaze")
	}
}

func TestStatsActivationsDominateWeights(t *testing.T) {
	// The paper's key observation: weights tiny, activation traffic huge.
	e := SynthEyeImage(128, 96, 0, 0, 0, 1)
	res := NewTracker().Track(e.Img)
	if res.Stats.ActivationBytes <= 50*res.Stats.WeightBytes {
		t.Errorf("activations %d not ≫ weights %d",
			res.Stats.ActivationBytes, res.Stats.WeightBytes)
	}
	if res.Stats.MACs == 0 {
		t.Error("no MACs recorded")
	}
}

func TestTrackBoth(t *testing.T) {
	l := SynthEyeImage(64, 48, 0.1, 0, 0, 1)
	r := SynthEyeImage(64, 48, -0.1, 0, 0, 2)
	tr := NewTracker()
	rl, rr := tr.TrackBoth(l.Img, r.Img)
	if !rl.Valid || !rr.Valid {
		t.Fatal("binocular tracking failed")
	}
	if rl.GazeX <= rr.GazeX {
		t.Error("left/right gaze ordering wrong")
	}
}

func TestIoUEdgeCases(t *testing.T) {
	if IoU([]uint8{0, 0}, []uint8{0, 0}, 3) != 1 {
		t.Error("absent class should give IoU 1")
	}
	if IoU([]uint8{3, 0}, []uint8{0, 3}, 3) != 0 {
		t.Error("disjoint masks should give IoU 0")
	}
}

func TestConvIdentity(t *testing.T) {
	c := newConv2D(1, 1, 3, false)
	c.setW(0, 0, 1, 1, 1)
	in := newTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	var s Stats
	out := c.Forward(in, &s)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatal("identity conv failed")
		}
	}
}

func TestMaxPoolUpsample(t *testing.T) {
	in := newTensor(1, 4, 4)
	in.set(0, 0, 0, 5)
	in.set(0, 3, 3, 7)
	var s Stats
	p := maxPool2{}.Forward(in, &s)
	if p.H != 2 || p.W != 2 || p.at(0, 0, 0) != 5 || p.at(0, 1, 1) != 7 {
		t.Fatalf("pool: %+v", p)
	}
	u := upsample2{}.Forward(p, &s)
	if u.H != 4 || u.at(0, 1, 1) != 5 {
		t.Fatal("upsample failed")
	}
}

// IoU computes the intersection-over-union of the predicted segmentation
// against ground truth for one class.
func IoU(pred, truth []uint8, class uint8) float64 {
	inter, union := 0, 0
	for i := range pred {
		p := pred[i] == class
		q := truth[i] == class
		if p && q {
			inter++
		}
		if p || q {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

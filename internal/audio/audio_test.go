package audio

import (
	"math"
	"math/rand"
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/recycle"
)

func TestChannelCount(t *testing.T) {
	for order, want := range map[int]int{0: 1, 1: 4, 2: 9, 3: 16} {
		if got := channelCount(order); got != want {
			t.Errorf("order %d: %d channels, want %d", order, got, want)
		}
	}
}

func TestEncodeSHOrder0Constant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		d := DirectionFromAzEl(rng.Float64()*2*math.Pi, rng.Float64()*math.Pi-math.Pi/2)
		if c := encodeSH(2, d); c[0] != 1 {
			t.Fatalf("W channel = %v", c[0])
		}
	}
}

func TestEncodeSHAxes(t *testing.T) {
	// Front (+X): ACN3 (X) should be 1, ACN1 (Y) and ACN2 (Z) zero.
	c := encodeSH(1, direction{X: 1})
	if math.Abs(c[3]-1) > 1e-12 || math.Abs(c[1]) > 1e-12 || math.Abs(c[2]) > 1e-12 {
		t.Errorf("front encode = %v", c)
	}
	// Up (+Z): ACN2 = 1.
	c = encodeSH(2, direction{Z: 1})
	if math.Abs(c[2]-1) > 1e-12 {
		t.Errorf("up encode = %v", c)
	}
	// ACN6 (= (3z²-1)/2) at up = 1
	if math.Abs(c[6]-1) > 1e-12 {
		t.Errorf("ACN6 at up = %v", c[6])
	}
}

// TestSHRotationMatchesDirectEncoding is the strongest rotation test:
// rotating the coefficients of a plane wave must equal encoding the
// rotated direction.
func TestSHRotationMatchesDirectEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for order := 1; order <= 3; order++ {
		for trial := 0; trial < 40; trial++ {
			q := mathx.Quat{
				W: rng.NormFloat64(), X: rng.NormFloat64(),
				Y: rng.NormFloat64(), Z: rng.NormFloat64(),
			}.Normalized()
			d := DirectionFromAzEl(rng.Float64()*2*math.Pi, rng.Float64()*math.Pi-math.Pi/2)
			coeffs := encodeSH(order, d)
			rot := newSHRotation(order, q)
			rot.Apply(coeffs)
			want := encodeSH(order, q.Rotate(d))
			for i := range coeffs {
				if math.Abs(coeffs[i]-want[i]) > 1e-9 {
					t.Fatalf("order %d trial %d: channel %d = %v, want %v",
						order, trial, i, coeffs[i], want[i])
				}
			}
		}
	}
}

func TestSHRotationIdentity(t *testing.T) {
	rot := newSHRotation(2, mathx.QuatIdentity())
	coeffs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]float64(nil), coeffs...)
	rot.Apply(coeffs)
	for i := range coeffs {
		if math.Abs(coeffs[i]-orig[i]) > 1e-12 {
			t.Fatalf("identity rotation changed channel %d", i)
		}
	}
}

func TestSHRotationPreservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		q := mathx.Quat{
			W: rng.NormFloat64(), X: rng.NormFloat64(),
			Y: rng.NormFloat64(), Z: rng.NormFloat64(),
		}.Normalized()
		coeffs := make([]float64, 9)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64()
		}
		// per-band energy must be invariant (rotations are orthogonal)
		e1 := coeffs[1]*coeffs[1] + coeffs[2]*coeffs[2] + coeffs[3]*coeffs[3]
		e2 := 0.0
		for i := 4; i < 9; i++ {
			e2 += coeffs[i] * coeffs[i]
		}
		newSHRotation(2, q).Apply(coeffs)
		f1 := coeffs[1]*coeffs[1] + coeffs[2]*coeffs[2] + coeffs[3]*coeffs[3]
		f2 := 0.0
		for i := 4; i < 9; i++ {
			f2 += coeffs[i] * coeffs[i]
		}
		if math.Abs(e1-f1) > 1e-9 || math.Abs(e2-f2) > 1e-9 {
			t.Fatalf("energy changed: band1 %v->%v band2 %v->%v", e1, f1, e2, f2)
		}
	}
}

func TestEncoderBlockShape(t *testing.T) {
	src := SineSource("tone", 440, 48000, 0.1, direction{X: 1})
	e := NewEncoder(2, 1024, []Source{src})
	b := e.EncodeBlock()
	if len(b) != 9 || len(b[0]) != 1024 {
		t.Fatalf("block shape %dx%d", len(b), len(b[0]))
	}
	if RMS(b[0]) == 0 {
		t.Error("silent W channel")
	}
	// Front source: Y channel (ACN1) should be ~0, X (ACN3) ~= W.
	if RMS(b[1]) > 1e-9 {
		t.Errorf("front source leaked into Y: %v", RMS(b[1]))
	}
	if math.Abs(RMS(b[3])-RMS(b[0])) > 1e-9 {
		t.Errorf("X %v != W %v", RMS(b[3]), RMS(b[0]))
	}
}

func TestEncoderSummation(t *testing.T) {
	// Two identical sources double the W channel amplitude.
	s1 := SineSource("a", 440, 48000, 0.1, direction{X: 1})
	s2 := SineSource("b", 440, 48000, 0.1, direction{Y: 1})
	single := NewEncoder(1, 256, []Source{s1})
	double := NewEncoder(1, 256, []Source{s1, s2})
	b1 := single.EncodeBlock()
	b2 := double.EncodeBlock()
	if math.Abs(RMS(b2[0])-2*RMS(b1[0])) > 1e-9 {
		t.Errorf("summation: W rms %v vs 2×%v", RMS(b2[0]), RMS(b1[0]))
	}
}

func TestEncoderLoops(t *testing.T) {
	src := SineSource("tone", 440, 48000, 0.01, direction{X: 1}) // 480 samples
	e := NewEncoder(1, 1024, []Source{src})
	b := e.EncodeBlock() // requires wrap-around
	if RMS(b[0]) == 0 {
		t.Error("looping failed")
	}
}

func TestSpeechLikeSourceNonTrivial(t *testing.T) {
	src := SpeechLikeSource("speech", 48000, 0.5, direction{X: 1}, 7)
	if len(src.PCM) != 24000 {
		t.Fatalf("pcm length %d", len(src.PCM))
	}
	var energy float64
	for _, v := range src.PCM {
		energy += float64(v) * float64(v)
	}
	if energy == 0 {
		t.Error("silent speech source")
	}
	// deterministic
	src2 := SpeechLikeSource("speech", 48000, 0.5, direction{X: 1}, 7)
	for i := range src.PCM {
		if src.PCM[i] != src2.PCM[i] {
			t.Fatal("speech source not deterministic")
		}
	}
}

func TestPlaybackProducesStereo(t *testing.T) {
	src := SineSource("tone", 440, 48000, 0.2, DirectionFromAzEl(math.Pi/2, 0)) // left
	e := NewEncoder(2, 1024, []Source{src})
	p := NewPlayback(2, 1024, 48000)
	var l, r []float64
	for i := 0; i < 4; i++ { // let filters fill
		l, r = p.Process(e.EncodeBlock(), mathx.PoseIdentity())
	}
	if RMS(l) == 0 || RMS(r) == 0 {
		t.Fatal("silent output")
	}
	// Source on the left: left ear louder.
	if RMS(l) <= RMS(r) {
		t.Errorf("left %v not louder than right %v for left-side source", RMS(l), RMS(r))
	}
}

func TestPlaybackRotationFollowsHead(t *testing.T) {
	// Source in front; head turned 90° left → source is to the right ear.
	src := SineSource("tone", 500, 48000, 0.2, direction{X: 1})
	e := NewEncoder(2, 1024, []Source{src})
	p := NewPlayback(2, 1024, 48000)
	pose := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Z: 1}, math.Pi/2)}
	var l, r []float64
	for i := 0; i < 4; i++ {
		l, r = p.Process(e.EncodeBlock(), pose)
	}
	if RMS(r) <= RMS(l) {
		t.Errorf("head turned left: right %v not louder than left %v", RMS(r), RMS(l))
	}
}

func TestPlaybackBlockCount(t *testing.T) {
	src := SineSource("tone", 440, 48000, 0.1, direction{X: 1})
	e := NewEncoder(2, 512, []Source{src})
	p := NewPlayback(2, 512, 48000)
	for i := 0; i < 3; i++ {
		p.Process(e.EncodeBlock(), mathx.PoseIdentity())
	}
	if p.BlocksProcessed != 3 {
		t.Errorf("blocks = %d", p.BlocksProcessed)
	}
}

func TestSynthHRTFITD(t *testing.T) {
	// A left-side source should reach the left ear earlier: the left FIR's
	// energy centroid must be earlier than the right's.
	l, r := synthHRTF(direction{Y: 1}, 48000)
	centroid := func(h []float64) float64 {
		num, den := 0.0, 0.0
		for i, v := range h {
			num += float64(i) * v * v
			den += v * v
		}
		return num / den
	}
	if centroid(l) >= centroid(r) {
		t.Errorf("left centroid %v not earlier than right %v", centroid(l), centroid(r))
	}
}

func TestDecodingMatrixRecoversPlaneWave(t *testing.T) {
	// Decoding a plane wave from direction d should put the most energy on
	// the speaker nearest to d.
	speakers := speakerRig()
	dm := decodingMatrix(2, speakers)
	d := DirectionFromAzEl(0, 0) // front
	coeffs := encodeSH(2, d)
	gains := make([]float64, dm.Rows)
	dm.MulVecNInto(gains, coeffs)
	best, bestG := -1, -1e9
	for i, g := range gains {
		if g > bestG {
			best, bestG = i, g
		}
	}
	if speakers[best].Dot(d) < 0.9 {
		t.Errorf("loudest speaker %v not aligned with source %v", speakers[best], d)
	}
}

// Apply rotates a full ACN coefficient vector in place.
func (r *shRotation) Apply(coeffs []float64) {
	scratch := recycle.F64.Get(2*r.Order + 1)
	r.applyWith(coeffs, scratch)
	recycle.F64.Put(scratch)
}

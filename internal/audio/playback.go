package audio

import (
	"math"

	"illixr/internal/dsp"
	"illixr/internal/mathx"
	"illixr/internal/parallel"
)

// Playback renders an ambisonic soundfield to binaural stereo following
// libspatialaudio's stages (Table VII): psychoacoustic filter, soundfield
// rotation from the listener pose, soundfield zoom, and binauralization
// through HRTF convolution over a virtual loudspeaker rig.
type Playback struct {
	Order      int
	BlockSize  int
	SampleRate float64

	psychoFilters []*dsp.OverlapAdd // one per ambisonic channel
	speakers      []direction
	decode        *mathx.Mat        // speakers × channels decoding matrix
	hrtfL         []*dsp.OverlapAdd // per speaker
	hrtfR         []*dsp.OverlapAdd

	// ZoomStrength in [0,1): 0 disables the zoom stage.
	ZoomStrength float64

	pool *parallel.Pool

	// Stats for the performance model
	BlocksProcessed int

	// Persistent per-block state (allocated once in NewPlayback) so
	// steady-state Process calls allocate nothing: the reusable SH
	// rotation, per-speaker decode scratch, HRTF outputs, the stereo
	// output pair, and the four stage kernels (DESIGN.md §10). Process is
	// not safe for concurrent use on one Playback (it never was: the
	// overlap-add filters carry state).
	rot         *shRotation
	spk         [][]float64 // per-speaker decode scratch
	ls, rs      [][]float64 // per-speaker HRTF outputs (aliases convolver scratch)
	left, right []float64
	curField    [][]float64
	zoomZ       float64
	psychoFn    func(lo, hi int)
	zoomFn      func(lo, hi int)
	binauralFn  func(lo, hi int)
}

// SetPool sets the worker pool for the playback stages (nil = serial).
// Output is bitwise identical for every worker count: the per-channel
// filters and per-speaker HRTF convolvers each own their overlap state, the
// rotation and zoom write disjoint sample tiles, and the final mixdown sums
// speakers in ascending order exactly as the serial path (DESIGN.md §8).
func (p *Playback) SetPool(pl *parallel.Pool) { p.pool = pl }

// NewPlayback builds the playback chain.
func NewPlayback(order, blockSize int, sampleRate float64) *Playback {
	p := &Playback{
		Order: order, BlockSize: blockSize, SampleRate: sampleRate,
		ZoomStrength: 0.3,
	}
	nCh := channelCount(order)
	// Psychoacoustic optimization filter: a gentle high-shelf compensating
	// the perceptual dullness of ambisonic reproduction. Applied per
	// channel in the frequency domain (FFT → multiply → IFFT), as in
	// Table VII.
	shelf := designShelfFIR(64, sampleRate)
	p.psychoFilters = make([]*dsp.OverlapAdd, nCh)
	for c := range p.psychoFilters {
		p.psychoFilters[c] = dsp.NewOverlapAdd(shelf, blockSize)
	}
	// Virtual loudspeaker rig: cube corners + horizontal square (12
	// speakers) for 2nd order decoding.
	p.speakers = speakerRig()
	p.decode = decodingMatrix(order, p.speakers)
	// Synthetic HRTFs: interaural delay + head-shadow lowpass per speaker.
	p.hrtfL = make([]*dsp.OverlapAdd, len(p.speakers))
	p.hrtfR = make([]*dsp.OverlapAdd, len(p.speakers))
	for i, dir := range p.speakers {
		hl, hr := synthHRTF(dir, sampleRate)
		p.hrtfL[i] = dsp.NewOverlapAdd(hl, blockSize)
		p.hrtfR[i] = dsp.NewOverlapAdd(hr, blockSize)
	}
	p.rot = newSHRotation(order, mathx.QuatIdentity())
	nSpk := len(p.speakers)
	p.spk = make([][]float64, nSpk)
	for i := range p.spk {
		p.spk[i] = make([]float64, blockSize)
	}
	p.ls = make([][]float64, nSpk)
	p.rs = make([][]float64, nSpk)
	p.left = make([]float64, blockSize)
	p.right = make([]float64, blockSize)
	p.psychoFn = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			out := p.psychoFilters[c].Process(p.curField[c])
			copy(p.curField[c], out)
		}
	}
	p.zoomFn = func(lo, hi int) {
		field, z := p.curField, p.zoomZ
		g := 1 / math.Sqrt(1+z*z)
		for i := lo; i < hi; i++ {
			w := field[0][i]
			x := field[3][i]
			field[0][i] = g * (w + z*x)
			field[3][i] = g * (x + z*w)
		}
	}
	p.binauralFn = func(lo, hi int) {
		field := p.curField
		nc := channelCount(p.Order)
		for s := lo; s < hi; s++ {
			spk := p.spk[s]
			for i := range spk {
				spk[i] = 0
			}
			for c := 0; c < nc; c++ {
				g := p.decode.At(s, c)
				if g == 0 {
					continue
				}
				row := field[c]
				for i := 0; i < p.BlockSize; i++ {
					spk[i] += g * row[i]
				}
			}
			p.ls[s], p.rs[s] = dsp.ProcessPair(p.hrtfL[s], p.hrtfR[s], spk)
		}
	}
	return p
}

// speakerRig returns the 12 virtual speaker directions.
func speakerRig() []direction {
	var out []direction
	// horizontal square
	for i := 0; i < 4; i++ {
		az := float64(i) * math.Pi / 2
		out = append(out, DirectionFromAzEl(az, 0))
	}
	// cube corners (elevation ±35.26°)
	for _, el := range []float64{0.6155, -0.6155} {
		for i := 0; i < 4; i++ {
			az := math.Pi/4 + float64(i)*math.Pi/2
			out = append(out, DirectionFromAzEl(az, el))
		}
	}
	return out
}

// decodingMatrix builds a mode-matching ambisonic decoder: D = pinv(Y)
// approximated by Yᵀ scaled per band (sampling decoder), which is exact
// for uniform rigs.
func decodingMatrix(order int, speakers []direction) *mathx.Mat {
	nCh := channelCount(order)
	d := mathx.NewMat(len(speakers), nCh)
	norm := 1.0 / float64(len(speakers))
	for s, dir := range speakers {
		y := encodeSH(order, dir)
		for c := 0; c < nCh; c++ {
			// per-band weighting (2l+1) recovers plane-wave amplitude
			l := bandOf(c)
			d.Set(s, c, y[c]*float64(2*l+1)*norm)
		}
	}
	return d
}

func bandOf(acn int) int {
	l := 0
	for (l+1)*(l+1) <= acn {
		l++
	}
	return l
}

// designShelfFIR windows an analytic high-shelf impulse response.
func designShelfFIR(taps int, sampleRate float64) []float64 {
	// +3 dB above ~4 kHz: h = δ + g·(δ − lowpass)
	fc := 4000.0 / sampleRate
	h := make([]float64, taps)
	win := dsp.Hamming(taps)
	mid := taps / 2
	for i := range h {
		t := float64(i - mid)
		var lp float64
		if t == 0 {
			lp = 2 * fc
		} else {
			lp = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		h[i] = -0.41 * lp * win[i]
	}
	h[mid] += 1 + 0.41*2*fc // delta plus gain correction
	return h
}

// synthHRTF returns left/right FIR approximations of a head-related
// transfer function for a source direction: interaural time difference as
// fractional delay plus a head-shadow lowpass on the far ear.
func synthHRTF(dir direction, sampleRate float64) (left, right []float64) {
	const taps = 64
	const headRadius = 0.0875 // meters
	const c = 343.0
	// azimuth of the source: positive Y is left
	sinAz := dir.Y
	itd := headRadius / c * (sinAz + math.Asin(mathx.Clamp(sinAz, -1, 1))) // Woodworth
	delayL := math.Max(0, -itd) * sampleRate
	delayR := math.Max(0, itd) * sampleRate
	// shadow: the ear away from the source gets a lowpass
	shadowL := mathx.Clamp(0.5-0.5*sinAz, 0, 1) // 1 = fully shadowed left
	shadowR := mathx.Clamp(0.5+0.5*sinAz, 0, 1)
	left = fractionalDelayFIR(taps, 8+delayL, 1-0.6*shadowL, shadowL, sampleRate)
	right = fractionalDelayFIR(taps, 8+delayR, 1-0.6*shadowR, shadowR, sampleRate)
	return left, right
}

// fractionalDelayFIR builds a windowed-sinc delay with optional one-pole
// style lowpass mixing (shadow in [0,1]). The Hann window is centred on
// the delay so the passband gain is independent of the delay value.
func fractionalDelayFIR(taps int, delay, gain, shadow, sampleRate float64) []float64 {
	h := make([]float64, taps)
	const halfWidth = 8.0
	for i := range h {
		t := float64(i) - delay
		if math.Abs(t) > halfWidth {
			continue
		}
		var s float64
		if t == 0 {
			s = 1
		} else {
			s = math.Sin(math.Pi*t) / (math.Pi * t)
		}
		win := 0.5 * (1 + math.Cos(math.Pi*t/halfWidth))
		h[i] = gain * s * win
	}
	if shadow > 0 {
		// crude head-shadow: blend with a 2-sample moving average
		sm := make([]float64, taps)
		for i := range sm {
			acc := h[i]
			n := 1.0
			if i > 0 {
				acc += h[i-1]
				n++
			}
			if i+1 < taps {
				acc += h[i+1]
				n++
			}
			sm[i] = acc / n
		}
		for i := range h {
			h[i] = (1-shadow)*h[i] + shadow*sm[i]
		}
	}
	return h
}

// Process renders one soundfield block to stereo given the listener pose.
// The field is modified in place (filtered, rotated, zoomed). The returned
// stereo buffers are playback-owned scratch, overwritten by the next
// Process call.
func (p *Playback) Process(field [][]float64, listener mathx.Pose) (left, right []float64) {
	nCh := channelCount(p.Order)
	if len(field) < nCh {
		panic("audio: field channel count below playback order")
	}
	p.curField = field
	// 1) psychoacoustic filter per channel: each channel owns its
	// OverlapAdd state, so channels parallelize with disjoint writes.
	p.pool.ForTiles("audio_psycho", nCh, 1, p.psychoFn)
	// 2) rotation: counter-rotate the field by the listener orientation
	p.rot.setQuat(listener.Rot.Inverse())
	p.rot.applyBlockPool(p.pool, field)
	// 3) zoom: forward emphasis mixing W with X (ACN 3)
	if p.ZoomStrength > 0 && p.Order >= 1 {
		p.zoomZ = p.ZoomStrength
		p.pool.ForTiles("audio_zoom", p.BlockSize, audioTile, p.zoomFn)
	}
	// 4) binauralization: decode to virtual speakers, convolve HRTFs.
	// Speakers parallelize (each owns its HRTF convolver pair and scratch
	// buffer); the stereo mixdown then sums speakers in ascending order,
	// matching the serial accumulation order bit for bit.
	nSpk := len(p.speakers)
	p.pool.ForTiles("audio_binaural", nSpk, 1, p.binauralFn)
	left, right = p.left, p.right
	for i := 0; i < p.BlockSize; i++ {
		left[i] = 0
		right[i] = 0
	}
	for s := 0; s < nSpk; s++ {
		l, r := p.ls[s], p.rs[s]
		for i := 0; i < p.BlockSize; i++ {
			left[i] += l[i]
			right[i] += r[i]
		}
	}
	p.curField = nil
	p.BlocksProcessed++
	return left, right
}

// RMS returns the root-mean-square level of a sample buffer.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

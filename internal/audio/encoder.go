package audio

import (
	"math"

	"illixr/internal/parallel"
)

// audioTile is the fixed sample-tile size for the parallel audio stages.
const audioTile = 256

// Source is one monophonic sound source to be spatialized.
type Source struct {
	Name string
	Dir  direction
	Gain float64
	// Samples as signed 16-bit integers, the on-disk format of the
	// Freesound clips the paper uses (§III-D): the encoder's first task is
	// the INT16 → FP32 normalization of Table VII.
	PCM []int16
}

// Encoder converts mono sources into an ambisonic soundfield block by
// block, mirroring the three tasks of Table VII: normalization, encoding
// (Y[j][i] = D × X[j]) and HOA soundfield summation.
type Encoder struct {
	Order     int
	BlockSize int
	Sources   []Source
	cursor    int
	pool      *parallel.Pool
	// Stats for the performance model
	SamplesEncoded int

	// Persistent per-block state: the field rows, per-source mono and SH
	// coefficient buffers, and the two tile kernels are allocated once and
	// reused so steady-state EncodeBlock calls allocate nothing
	// (DESIGN.md §10). The returned block is encoder-owned and valid until
	// the next EncodeBlock call.
	field  [][]float64
	monos  [][]float64
	coeffs [][]float64
	active []encodedSource

	curMono   []float64 // per-source args for normFn
	curPCM    []int16
	curCursor int
	normFn    func(lo, hi int)
	encodeFn  func(lo, hi int)
}

// encodedSource is one active source's prepared block inputs.
type encodedSource struct {
	mono   []float64
	coeffs []float64
	gain   float64
}

// SetPool sets the worker pool for the encode stages (nil = serial). The
// soundfield is bitwise identical for every worker count: normalization
// writes disjoint sample tiles, and each channel accumulates its sources
// in declaration order exactly as the serial path does (DESIGN.md §8).
func (e *Encoder) SetPool(p *parallel.Pool) { e.pool = p }

// NewEncoder builds an encoder at the paper's tuned configuration
// (Table III: 48 Hz block rate → 1024-sample blocks at 48 kHz, order 2).
func NewEncoder(order, blockSize int, sources []Source) *Encoder {
	return &Encoder{Order: order, BlockSize: blockSize, Sources: sources}
}

// ensureBuffers builds the encoder's persistent block state on first use.
func (e *Encoder) ensureBuffers() {
	if e.field != nil && len(e.monos) == len(e.Sources) {
		return
	}
	nCh := channelCount(e.Order)
	e.field = make([][]float64, nCh)
	for c := range e.field {
		e.field[c] = make([]float64, e.BlockSize)
	}
	e.monos = make([][]float64, len(e.Sources))
	e.coeffs = make([][]float64, len(e.Sources))
	for i := range e.Sources {
		e.monos[i] = make([]float64, e.BlockSize)
		e.coeffs[i] = make([]float64, nCh)
	}
	e.active = make([]encodedSource, 0, len(e.Sources))
	e.normFn = func(lo, hi int) {
		mono, pcm, cur := e.curMono, e.curPCM, e.curCursor
		for i := lo; i < hi; i++ {
			mono[i] = float64(pcm[(cur+i)%len(pcm)]) / 32768.0
		}
	}
	e.encodeFn = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			row := e.field[c]
			for i := range row {
				row[i] = 0
			}
			for _, src := range e.active {
				g := src.coeffs[c] * src.gain
				for i := 0; i < e.BlockSize; i++ {
					row[i] += g * src.mono[i]
				}
			}
		}
	}
}

// EncodeBlock produces the next soundfield block: a [channels][blockSize]
// matrix. Sources shorter than the cursor wrap around (looping playback).
// The returned block is encoder-owned scratch: callers may mutate it, but
// it is overwritten by the next EncodeBlock call.
func (e *Encoder) EncodeBlock() [][]float64 {
	e.ensureBuffers()
	nCh := channelCount(e.Order)
	// Task 1 + 2 per source: normalization (INT16 -> FP64) over disjoint
	// sample tiles, and the SH encoding coefficients Y[j][i] = D × X[j].
	e.active = e.active[:0]
	for si, src := range e.Sources {
		if len(src.PCM) == 0 {
			continue
		}
		e.curMono, e.curPCM, e.curCursor = e.monos[si], src.PCM, e.cursor
		e.pool.ForTiles("audio_normalize", e.BlockSize, audioTile, e.normFn)
		gain := src.Gain
		if gain == 0 {
			gain = 1
		}
		encodeSHInto(e.Order, src.Dir.Normalized(), e.coeffs[si])
		e.active = append(e.active, encodedSource{
			mono:   e.monos[si],
			coeffs: e.coeffs[si],
			gain:   gain,
		})
		e.SamplesEncoded += e.BlockSize
	}
	e.curMono, e.curPCM = nil, nil
	// Task 3: HOA soundfield summation Y[i][j] += Xk[i][j] ∀k. Channels are
	// disjoint rows; each row zeroes itself then sums its sources in
	// declaration order, the same order as the serial loop, so the field is
	// bitwise identical.
	e.pool.ForTiles("audio_encode", nCh, 1, e.encodeFn)
	e.cursor += e.BlockSize
	return e.field
}

// SineSource builds a looping pure-tone source (test signal).
func SineSource(name string, freqHz, sampleRate float64, seconds float64, dir direction) Source {
	n := int(seconds * sampleRate)
	pcm := make([]int16, n)
	for i := range pcm {
		pcm[i] = int16(20000 * math.Sin(2*math.Pi*freqHz*float64(i)/sampleRate))
	}
	return Source{Name: name, Dir: dir, Gain: 1, PCM: pcm}
}

// speechTile is the sample-tile size SpeechLikeSource synthesizes on.
const speechTile = 4096

// SpeechLikeSource synthesizes a speech-like signal (amplitude-modulated
// harmonics with formant-ish band emphasis) — the stand-in for the
// "Science Teacher Lecturing" Freesound clip (§III-D). The random phases
// are drawn first, in order; each sample is then a pure function of its
// index, computed on fixed tiles of the core pool, so the clip is
// bit-identical at any GOMAXPROCS.
func SpeechLikeSource(name string, sampleRate float64, seconds float64, dir direction, seed int64) Source {
	n := int(seconds * sampleRate)
	pcm := make([]int16, n)
	// deterministic pseudo-random phases from the seed
	rngState := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return float64(rngState>>11) / float64(1<<53)
	}
	f0 := 120 + 40*next() // fundamental
	var phases, omega, amp [8]float64
	for i := range phases {
		phases[i] = 2 * math.Pi * next()
	}
	for h := 1; h <= 8; h++ {
		omega[h-1] = 2 * math.Pi * f0 * float64(h)
		amp[h-1] = 1.0 / float64(h)
		if h == 3 || h == 4 { // crude formant emphasis
			amp[h-1] *= 2
		}
	}
	pool := parallel.New(0)
	defer pool.Close()
	pool.ForTiles("audio_speech", n, speechTile, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := float64(i) / sampleRate
			// syllable-rate envelope ~4 Hz
			env := 0.5 + 0.5*math.Sin(2*math.Pi*4*t+1.3)
			env *= 0.6 + 0.4*math.Sin(2*math.Pi*0.7*t)
			s := 0.0
			for h := range omega {
				s += amp[h] * math.Sin(omega[h]*t+phases[h])
			}
			pcm[i] = int16(6000 * env * s / 4)
		}
	})
	return Source{Name: name, Dir: dir, Gain: 1, PCM: pcm}
}

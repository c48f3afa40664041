package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	fft(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSineBin(t *testing.T) {
	// A pure sinusoid at bin k puts all its energy in bins k and N-k.
	n := 64
	k := 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*float64(k*i)/float64(n)), 0)
	}
	fft(x)
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if math.Abs(mag-float64(n)/2) > 1e-9 {
				t.Fatalf("bin %d mag = %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Fatalf("bin %d leak = %v", i, mag)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 256, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		fft(x)
		ifft(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	timeEnergy := 0.0
	for _, v := range x {
		timeEnergy += v * v
	}
	spec := make([]complex128, n)
	for i, v := range x {
		spec[i] = complex(v, 0)
	}
	fft(spec)
	freqEnergy := 0.0
	for _, v := range spec {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Errorf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fft(make([]complex128, 12))
}

func TestPowerOfTwoHelpers(t *testing.T) {
	if !isPowerOfTwo(1) || !isPowerOfTwo(1024) || isPowerOfTwo(0) || isPowerOfTwo(12) {
		t.Error("IsPowerOfTwo broken")
	}
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := nextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestOverlapAddMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	kernel := make([]float64, 37)
	for i := range kernel {
		kernel[i] = rng.NormFloat64()
	}
	block := 64
	nBlocks := 8
	signal := make([]float64, block*nBlocks)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	ola := NewOverlapAdd(kernel, block)
	var streamed []float64
	for b := 0; b < nBlocks; b++ {
		out := ola.Process(signal[b*block : (b+1)*block])
		streamed = append(streamed, out...)
	}
	ref := ConvolveDirect(signal, kernel)
	for i := range streamed {
		if math.Abs(streamed[i]-ref[i]) > 1e-8 {
			t.Fatalf("sample %d: %v vs %v", i, streamed[i], ref[i])
		}
	}
}

// TestProcessPairMatchesProcess: one shared forward FFT finishes both
// convolvers exactly as two Process calls do, bit for bit, over 64 blocks
// whose tails carry from block to block.
func TestProcessPairMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kernel := func() []float64 {
		h := make([]float64, 64)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		return h
	}
	ka, kb := kernel(), kernel()
	const block = 256
	pairA, pairB := NewOverlapAdd(ka, block), NewOverlapAdd(kb, block)
	refA, refB := NewOverlapAdd(ka, block), NewOverlapAdd(kb, block)
	in := make([]float64, block)
	for n := 0; n < 64; n++ {
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		gotA, gotB := ProcessPair(pairA, pairB, in)
		wantA, wantB := refA.Process(in), refB.Process(in)
		for i := range in {
			if math.Float64bits(gotA[i]) != math.Float64bits(wantA[i]) ||
				math.Float64bits(gotB[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("block %d sample %d: pair (%v, %v), Process (%v, %v)",
					n, i, gotA[i], gotB[i], wantA[i], wantB[i])
			}
		}
	}
}

func TestWindows(t *testing.T) {
	hm := Hamming(8)
	if math.Abs(hm[0]-0.08) > 1e-12 {
		t.Errorf("Hamming[0] = %v", hm[0])
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		fft(a)
		fft(b)
		fft(sum)
		for i := 0; i < n; i++ {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// ConvolveDirect computes the full linear convolution of x and h by the
// direct O(N·M) method: the reference the overlap-add tests compare
// against.
func ConvolveDirect(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

package dsp

import (
	"testing"

	"illixr/internal/testutil"
)

// TestZeroAllocFFT pins the in-place transform at zero steady-state
// allocations: twiddle factors and the bit-reversal table come from the
// plan cache after the first call at each size.
func TestZeroAllocFFT(t *testing.T) {
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(float64(i%13)/13, 0)
	}
	testutil.MustZeroAllocs(t, "FFT+IFFT", func() {
		fft(x)
		ifft(x)
	})
}

// TestZeroAllocOverlapAdd pins streaming convolution at zero steady-state
// allocations: the convolver reuses its own spectra and output scratch.
func TestZeroAllocOverlapAdd(t *testing.T) {
	kernel := make([]float64, 64)
	for i := range kernel {
		kernel[i] = 1 / float64(i+1)
	}
	o := NewOverlapAdd(kernel, 256)
	block := make([]float64, 256)
	for i := range block {
		block[i] = float64(i%7) / 7
	}
	testutil.MustZeroAllocs(t, "OverlapAdd.Process", func() {
		out := o.Process(block)
		copy(block, out[:len(block)])
	})
}

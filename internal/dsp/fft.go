// Package dsp provides the signal-processing substrate for the ILLIXR
// audio pipeline: radix-2 complex FFT/IFFT, fast convolution via
// overlap-add, and window functions.
package dsp

import (
	"fmt"
	"math"
)

// isPowerOfTwo reports whether n is a positive power of two.
func isPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// nextPowerOfTwo returns the smallest power of two >= n (n must be > 0).
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fft computes the in-place radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two.
func fft(x []complex128) {
	fftInternal(x, false)
}

// ifft computes the in-place inverse FFT of x (including the 1/N scaling).
// len(x) must be a power of two.
func ifft(x []complex128) {
	fftInternal(x, true)
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
}

func fftInternal(x []complex128, inverse bool) {
	n := len(x)
	if !isPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// The bit-reversal pairs and twiddle factors depend only on n, so they
	// come from the length-keyed plan cache; the twiddles there were
	// generated with the same incremental recurrence this loop used to run
	// inline, keeping planned output bit-identical to the original.
	pl := planFor(n, inverse)
	for _, sw := range pl.swaps {
		i, j := sw[0], sw[1]
		x[i], x[j] = x[j], x[i]
	}
	for s, tw := range pl.stages {
		length := 2 << s
		half := length / 2
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * tw[k]
				x[start+k] = u + v
				x[start+k+half] = u - v
			}
		}
	}
}

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

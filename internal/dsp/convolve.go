package dsp

// OverlapAdd is a streaming FFT convolver: it convolves a long signal,
// presented block by block, with a fixed FIR kernel. This is the structure
// the audio playback component uses for HRTF binauralization and the
// psychoacoustic filter (FFT → frequency-domain multiply → IFFT per block).
type OverlapAdd struct {
	kernelSpec []complex128
	blockSize  int
	fftSize    int
	tail       []float64
	// scratch buffers reused across blocks
	buf []complex128
	// out is the returned block, overwritten by the next Process call;
	// tailNext double-buffers the carried tail so the shift allocates
	// nothing.
	out      []float64
	tailNext []float64
}

// NewOverlapAdd creates a convolver for the given FIR kernel and input
// block size.
func NewOverlapAdd(kernel []float64, blockSize int) *OverlapAdd {
	fftSize := nextPowerOfTwo(blockSize + len(kernel) - 1)
	spec := make([]complex128, fftSize)
	for i, v := range kernel {
		spec[i] = complex(v, 0)
	}
	fft(spec)
	return &OverlapAdd{
		kernelSpec: spec,
		blockSize:  blockSize,
		fftSize:    fftSize,
		tail:       make([]float64, fftSize-blockSize),
		buf:        make([]complex128, fftSize),
		out:        make([]float64, blockSize),
		tailNext:   make([]float64, fftSize-blockSize),
	}
}

// Process convolves one block (len must equal BlockSize) and returns one
// output block of the same length. Convolution tails are carried into
// subsequent blocks.
//
// The returned slice is convolver-owned scratch, overwritten by the next
// Process call on the same OverlapAdd — copy it out if it must outlive
// that (DESIGN.md §10). block may alias a previous return value.
func (o *OverlapAdd) Process(block []float64) []float64 {
	o.transform(block)
	return o.finish()
}

// ProcessPair is a.Process(block) and b.Process(block) with one forward
// FFT: the block's spectrum is the same for both convolvers, so it is
// computed in a's scratch and copied to b's. Both must share the block and
// FFT size (two HRTF ears of one speaker do). The outputs are bit-identical
// to two Process calls and follow the same ownership rule.
func ProcessPair(a, b *OverlapAdd, block []float64) (outA, outB []float64) {
	if a.blockSize != b.blockSize || a.fftSize != b.fftSize {
		panic("dsp: ProcessPair convolvers differ in block or FFT size")
	}
	a.transform(block)
	copy(b.buf, a.buf)
	return a.finish(), b.finish()
}

// transform loads one zero-padded block into the scratch spectrum and
// FFTs it.
func (o *OverlapAdd) transform(block []float64) {
	if len(block) != o.blockSize {
		panic("dsp: OverlapAdd block size mismatch")
	}
	for i := range o.buf {
		if i < len(block) {
			o.buf[i] = complex(block[i], 0)
		} else {
			o.buf[i] = 0
		}
	}
	fft(o.buf)
}

// finish multiplies the scratch spectrum by the kernel's, transforms back,
// adds the carried tail and carries the new one.
func (o *OverlapAdd) finish() []float64 {
	for i := range o.buf {
		o.buf[i] *= o.kernelSpec[i]
	}
	ifft(o.buf)
	out := o.out
	for i := 0; i < o.blockSize; i++ {
		out[i] = real(o.buf[i])
		if i < len(o.tail) {
			out[i] += o.tail[i]
		}
	}
	// shift tail: new tail = old tail shifted by blockSize + new samples
	newTail := o.tailNext
	for i := 0; i < len(o.tail); i++ {
		v := real(o.buf[o.blockSize+i])
		if o.blockSize+i < len(o.tail) {
			v += o.tail[o.blockSize+i]
		}
		newTail[i] = v
	}
	o.tail, o.tailNext = newTail, o.tail
	return out
}

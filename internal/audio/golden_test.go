package audio

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/parallel"
	"illixr/internal/testutil"
)

func testChain(pool *parallel.Pool) (*Encoder, *Playback) {
	sources := []Source{
		SpeechLikeSource("lecturer", 48000, 0.5, DirectionFromAzEl(0.5, 0), 7),
		SineSource("radio", 440, 48000, 0.5, DirectionFromAzEl(-1.2, 0.2)),
	}
	enc := NewEncoder(2, 512, sources)
	play := NewPlayback(2, 512, 48000)
	enc.SetPool(pool)
	play.SetPool(pool)
	return enc, play
}

func testListener(block int) mathx.Pose {
	return mathx.Pose{
		Rot: mathx.QuatFromAxisAngle(
			mathx.Vec3{X: 0, Y: 0, Z: 1}, 0.1*float64(block+1)),
	}
}

// renderBlocks runs the full encode→playback chain for nBlocks and returns
// the concatenated stereo output.
func renderBlocks(pool *parallel.Pool, nBlocks int) (left, right []float64) {
	enc, play := testChain(pool)
	for b := 0; b < nBlocks; b++ {
		field := enc.EncodeBlock()
		l, r := play.Process(field, testListener(b))
		left = append(left, l...)
		right = append(right, r...)
	}
	return left, right
}

func TestGoldenEncodePlayback(t *testing.T) {
	left, right := renderBlocks(nil, 3)
	var vals []float64
	stride := len(left)/128 + 1
	for i := 0; i < len(left); i += stride {
		vals = append(vals, left[i], right[i])
	}
	sumL, sumR := 0.0, 0.0
	for i := range left {
		sumL += left[i]
		sumR += right[i]
	}
	vals = append(vals, sumL, sumR)
	testutil.CheckGolden(t, "testdata/encode_playback.golden", vals, 0)
}

func TestDeterminismAudioChain(t *testing.T) {
	refL, refR := renderBlocks(nil, 3)
	for _, workers := range []int{2, 4, 7} {
		gotL, gotR := renderBlocks(parallel.New(workers), 3)
		for i := range refL {
			if math.Float64bits(gotL[i]) != math.Float64bits(refL[i]) ||
				math.Float64bits(gotR[i]) != math.Float64bits(refR[i]) {
				t.Fatalf("workers=%d: sample %d differs: (%v,%v) vs (%v,%v)",
					workers, i, gotL[i], gotR[i], refL[i], refR[i])
			}
		}
	}
}

// pcmHash is an FNV-64a over a source's samples, length first.
func pcmHash(pcm []int16) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8, 8+2*len(pcm))
	binary.LittleEndian.PutUint64(buf, uint64(len(pcm)))
	for _, v := range pcm {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
	}
	h.Write(buf)
	return h.Sum64()
}

// TestSourcePCMGolden pins the synthesized clips themselves, sample for
// sample, at GOMAXPROCS 1 and at the process default: the encode/playback
// golden would notice a change only through the mix.
func TestSourcePCMGolden(t *testing.T) {
	dir := DirectionFromAzEl(0.5, 0)
	golden := []struct {
		name string
		src  func() Source
		want uint64
	}{
		{"speech 2 s seed 7", func() Source { return SpeechLikeSource("s", 48000, 2, dir, 7) }, 0x197db3eba1246c9d},
		{"speech 1 s seed 1", func() Source { return SpeechLikeSource("s", 48000, 1, dir, 1) }, 0x7a59f4e8c4bf0e01},
		{"speech 0.01 s seed 3", func() Source { return SpeechLikeSource("s", 44100, 0.01, dir, 3) }, 0xc6171098d5366231},
		{"speech empty", func() Source { return SpeechLikeSource("s", 48000, 0, dir, 7) }, 0xa8c7f832281a39c5},
		{"sine 440 Hz 2 s", func() Source { return SineSource("r", 440, 48000, 2, dir) }, 0x4981890b4852d8b9},
		{"sine 500 Hz 0.2 s", func() Source { return SineSource("r", 500, 48000, 0.2, dir) }, 0xaa7cd8e36ef4ef42},
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, g := range golden {
				if got := pcmHash(g.src().PCM); got != g.want {
					t.Errorf("%s: hash %#016x, want %#016x", g.name, got, g.want)
				}
			}
		})
	}
}

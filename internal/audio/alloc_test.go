package audio

import (
	"testing"

	"illixr/internal/mathx"
	"illixr/internal/testutil"
)

// TestZeroAllocAudioBlock pins one full audio frame — ambisonic encode of
// two sources plus rotation, psychoacoustic filtering, zoom, and binaural
// decode — at zero steady-state allocations. Encoder and playback own
// their scratch; only the SH rotation pulls (and returns) pool buffers.
func TestZeroAllocAudioBlock(t *testing.T) {
	sources := []Source{
		SpeechLikeSource("lecturer", 48000, 1, DirectionFromAzEl(0.5, 0), 7),
		SineSource("radio", 440, 48000, 1, DirectionFromAzEl(-1.2, 0.2)),
	}
	enc := NewEncoder(2, 256, sources)
	play := NewPlayback(2, 256, 48000)
	pose := mathx.Pose{Rot: mathx.QuatFromAxisAngle(mathx.Vec3{Y: 1}, 0.3)}
	testutil.MustZeroAllocs(t, "EncodeBlock+Process", func() {
		field := enc.EncodeBlock()
		_, _ = play.Process(field, pose)
	})
}

// BenchmarkEncodeBlock is Table VII's audio-encoding task: one 1024-sample
// second-order block from two sources.
func BenchmarkEncodeBlock(b *testing.B) {
	srcs := []Source{
		SpeechLikeSource("a", 48000, 1, DirectionFromAzEl(0.5, 0), 1),
		SineSource("b", 440, 48000, 1, DirectionFromAzEl(-0.5, 0.2)),
	}
	enc := NewEncoder(2, 1024, srcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeBlock()
	}
}

// BenchmarkPlaybackBlock is Table VII's audio-playback task: filter,
// rotate, zoom and binauralize one 1024-sample second-order block.
func BenchmarkPlaybackBlock(b *testing.B) {
	srcs := []Source{SineSource("a", 440, 48000, 1, DirectionFromAzEl(0.5, 0))}
	enc := NewEncoder(2, 1024, srcs)
	play := NewPlayback(2, 1024, 48000)
	pose := mathx.PoseIdentity()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		play.Process(enc.EncodeBlock(), pose)
	}
}

// BenchmarkSpeechLikeSource synthesizes the live pipeline's lecturer clip:
// two seconds at 48 kHz, built once per set-up.
func BenchmarkSpeechLikeSource(b *testing.B) {
	dir := DirectionFromAzEl(0.5, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = SpeechLikeSource("lecturer", 48000, 2, dir, 7)
	}
}

var sinkSource Source

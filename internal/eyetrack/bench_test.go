package eyetrack

import "testing"

// BenchmarkEyeTracking_Inference is one eye image through the
// segmentation network and gaze estimate.
func BenchmarkEyeTracking_Inference(b *testing.B) {
	tr := NewTracker()
	img := SynthEyeImage(160, 120, 0.1, 0, 0.02, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Track(img.Img)
	}
}

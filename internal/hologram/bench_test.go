package hologram

import "testing"

// BenchmarkTable7Hologram_GSW is one hologram of Table VII: weighted
// Gerchberg–Saxton over two depth planes of four spots.
func BenchmarkTable7Hologram_GSW(b *testing.B) {
	p := DefaultParams()
	p.Width, p.Height = 128, 128
	p.Iterations = 3
	spots := SpotsFromDepthPlanes(2, 4, 6e-4, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(p, spots)
	}
}

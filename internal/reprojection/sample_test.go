package reprojection

import (
	"math"
	"math/rand"
	"testing"

	"illixr/internal/imgproc"
)

// refBilinear is the textbook sampler the warp's must equal bit for bit:
// each tap clamped on its own through RGB.At, weights taken from the
// unclamped cell origin ⌊x⌋.
func refBilinear(im *imgproc.RGB, x, y float64, c int) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	at := func(xx, yy int) float32 {
		px := [3]float32{}
		px[0], px[1], px[2] = im.At(xx, yy)
		return px[c]
	}
	top := at(x0, y0) + (at(x0+1, y0)-at(x0, y0))*fx
	bot := at(x0, y0+1) + (at(x0+1, y0+1)-at(x0, y0+1))*fx
	return top + (bot-top)*fy
}

// TestWarpSamplerBitEqual holds warpTile's sampler (cell on each axis, then
// blend, as warpTile composes them) to refBilinear over the warp's domain
// [−0.5, W−0.5) × [−0.5, H−0.5): the −0.5 edge, the first cell, the last
// row and column (where the second tap clamps), exact integers, the
// largest coordinate below W−0.5, and random points.
func TestWarpSamplerBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w, h = 9, 7
	im := imgproc.NewRGB(w, h)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	xEnd, yEnd := math.Nextafter(w-0.5, 0), math.Nextafter(h-0.5, 0)
	coords := [][2]float64{
		{-0.5, -0.5}, {-0.25, 2.5}, {4.75, -0.5}, {math.Nextafter(0, -1), 3}, // before the first pixel centre
		{0, 0}, {3, 4}, {w - 1, h - 1}, // exact integers
		{w - 1, 3.3}, {8.25, 5.5}, {3.1, h - 1}, {xEnd, yEnd}, {xEnd, 0}, {0, yEnd}, // last row and column
		{7.999, 5.999}, {0.001, 0.001},
	}
	for i := 0; i < 400; i++ {
		coords = append(coords, [2]float64{rng.Float64()*w - 0.5, rng.Float64()*h - 0.5})
	}
	for _, xy := range coords {
		x, y := xy[0], xy[1]
		if x < -0.5 || x >= w-0.5 || y < -0.5 || y >= h-0.5 {
			t.Fatalf("(%v, %v) is outside the warp's domain", x, y)
		}
		for c := 0; c < 3; c++ {
			x0, x1, ax := cell(x, w)
			y0, y1, ay := cell(y, h)
			got := blend(im.Pix, 3*y0*w+c, 3*y1*w+c, 3*x0, 3*x1, ax, ay)
			if want := refBilinear(im, x, y, c); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("sample(%v, %v, %d) = %08x, reference %08x", x, y, c, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

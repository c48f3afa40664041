// Package imgproc provides the image-processing substrate for ILLIXR:
// float-valued grayscale and RGB images, separable and bilateral filters,
// gradients, pyramids, the FAST-9 corner detector and a pyramidal
// Lucas-Kanade (KLT) tracker. These are the building blocks used by the
// VIO front-end, scene reconstruction, reprojection and the image-quality
// metrics.
package imgproc

import (
	"fmt"
	"math"
)

// Gray is a single-channel float32 image in row-major layout. Pixel values
// are nominally in [0, 1] but the type does not enforce a range.
type Gray struct {
	W, H int
	Pix  []float32
}

// NewGray allocates a zeroed W×H grayscale image.
func NewGray(w, h int) *Gray {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y) with clamp-to-edge behaviour for
// out-of-range coordinates.
func (g *Gray) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set stores v at (x, y); out-of-range writes are ignored.
func (g *Gray) Set(x, y int, v float32) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// bilinear samples the image at real-valued coordinates with bilinear
// interpolation and clamp-to-edge boundary handling.
func (g *Gray) bilinear(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := g.At(x0, y0)
	v10 := g.At(x0+1, y0)
	v01 := g.At(x0, y0+1)
	v11 := g.At(x0+1, y0+1)
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

// inBounds reports whether (x, y) lies inside the image with the given
// margin.
func (g *Gray) inBounds(x, y float64, margin int) bool {
	m := float64(margin)
	return x >= m && y >= m && x < float64(g.W)-m-1 && y < float64(g.H)-m-1
}

// Mean returns the mean pixel value.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range g.Pix {
		s += float64(v)
	}
	return s / float64(len(g.Pix))
}

// RGB is a three-channel interleaved float32 image (R, G, B per pixel).
type RGB struct {
	W, H int
	Pix  []float32 // len = 3*W*H, interleaved
}

// NewRGB allocates a zeroed W×H RGB image.
func NewRGB(w, h int) *RGB {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]float32, 3*w*h)}
}

// At returns the (r, g, b) pixel at (x, y) with clamp-to-edge behaviour.
func (im *RGB) At(x, y int) (r, g, b float32) {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores (r, g, b) at (x, y); out-of-range writes are ignored.
func (im *RGB) Set(x, y int, r, g, b float32) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Clone returns a deep copy.
func (im *RGB) Clone() *RGB {
	out := NewRGB(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Luminance converts to grayscale with Rec. 709 weights. The returned
// image is pooled (caller may PutGray it when done).
func (im *RGB) Luminance() *Gray {
	out := GetGray(im.W, im.H)
	im.luminanceInto(out)
	return out
}

// luminanceInto writes the Rec. 709 luminance into dst (same size).
func (im *RGB) luminanceInto(dst *Gray) {
	if dst.W != im.W || dst.H != im.H {
		panic("imgproc: LuminanceInto size mismatch")
	}
	for i := 0; i < im.W*im.H; i++ {
		r, g, b := im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2]
		dst.Pix[i] = 0.2126*r + 0.7152*g + 0.0722*b
	}
}

// Planar converts the interleaved RGB_RGB layout into planar RR_GG_BB
// (three contiguous channel planes). Scene reconstruction performs this
// conversion when moving data between GPU-compute and GPU-graphics style
// layouts (Table VI "layout change").
func (im *RGB) Planar() []float32 {
	n := im.W * im.H
	out := make([]float32, 3*n)
	for i := 0; i < n; i++ {
		out[i] = im.Pix[3*i]
		out[n+i] = im.Pix[3*i+1]
		out[2*n+i] = im.Pix[3*i+2]
	}
	return out
}

// Package eyetrack implements ILLIXR's eye-tracking component (Table II,
// "Eye Tracking"): a convolutional encoder-decoder that segments eye
// images into background / sclera / iris / pupil classes (RITnet's task)
// and derives the gaze point from the pupil centroid. Inference is pure
// Go; weights are constructed analytically so the network performs real
// segmentation on the synthetic OpenEDS-style eye images of this repo
// while exercising the same compute shape as the original (convolutions
// dominate; activations vastly exceed weights in memory traffic).
package eyetrack

import (
	"illixr/internal/imgproc"
)

// Tensor is a CHW float32 feature map.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// newTensor allocates a zeroed tensor.
func newTensor(c, h, w int) *Tensor {
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// at returns element (c, y, x).
func (t *Tensor) at(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// set stores v at (c, y, x).
func (t *Tensor) set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// fromGray wraps a grayscale image as a 1-channel tensor.
func fromGray(g *imgproc.Gray) *Tensor {
	t := newTensor(1, g.H, g.W)
	copy(t.Data, g.Pix)
	return t
}

// Layer is one network stage.
type Layer interface {
	Forward(in *Tensor, stats *Stats) *Tensor
	WeightCount() int
}

// Stats accumulates inference work counters. The paper observes eye
// tracking is memory-bandwidth bound: tiny weights (0.98 MB) but huge
// activation traffic (1922 MB) — ActivationBytes/WeightBytes preserves
// that ratio here.
type Stats struct {
	MACs            int
	ActivationBytes int
	WeightBytes     int
}

// conv2D is a 2-D convolution with 'same' padding and stride 1.
type conv2D struct {
	InC, OutC, K int
	// W[o][i][ky][kx] flattened; B per output channel.
	W []float32
	B []float32
	// ReLU fuses the activation.
	ReLU bool
}

// newConv2D allocates a zero-weight convolution.
func newConv2D(inC, outC, k int, relu bool) *conv2D {
	return &conv2D{
		InC: inC, OutC: outC, K: k,
		W:    make([]float32, outC*inC*k*k),
		B:    make([]float32, outC),
		ReLU: relu,
	}
}

// setW stores a kernel weight.
func (c *conv2D) setW(o, i, ky, kx int, v float32) {
	c.W[((o*c.InC+i)*c.K+ky)*c.K+kx] = v
}

// WeightCount implements Layer.
func (c *conv2D) WeightCount() int { return len(c.W) + len(c.B) }

// Forward implements Layer.
func (c *conv2D) Forward(in *Tensor, stats *Stats) *Tensor {
	if in.C != c.InC {
		panic("eyetrack: conv channel mismatch")
	}
	out := newTensor(c.OutC, in.H, in.W)
	pad := c.K / 2
	for o := 0; o < c.OutC; o++ {
		bias := c.B[o]
		for y := 0; y < in.H; y++ {
			for x := 0; x < in.W; x++ {
				acc := bias
				for i := 0; i < c.InC; i++ {
					for ky := 0; ky < c.K; ky++ {
						sy := y + ky - pad
						if sy < 0 || sy >= in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							sx := x + kx - pad
							if sx < 0 || sx >= in.W {
								continue
							}
							w := c.W[((o*c.InC+i)*c.K+ky)*c.K+kx]
							if w != 0 {
								acc += w * in.at(i, sy, sx)
							}
						}
					}
				}
				if c.ReLU && acc < 0 {
					acc = 0
				}
				out.set(o, y, x, acc)
			}
		}
	}
	stats.MACs += c.OutC * in.H * in.W * c.InC * c.K * c.K
	stats.ActivationBytes += 4 * (len(in.Data) + len(out.Data))
	stats.WeightBytes += 4 * c.WeightCount()
	return out
}

// maxPool2 halves spatial resolution with 2×2 max pooling.
type maxPool2 struct{}

// WeightCount implements Layer.
func (maxPool2) WeightCount() int { return 0 }

// Forward implements Layer.
func (maxPool2) Forward(in *Tensor, stats *Stats) *Tensor {
	h2, w2 := in.H/2, in.W/2
	out := newTensor(in.C, h2, w2)
	for c := 0; c < in.C; c++ {
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				m := in.at(c, 2*y, 2*x)
				if v := in.at(c, 2*y, 2*x+1); v > m {
					m = v
				}
				if v := in.at(c, 2*y+1, 2*x); v > m {
					m = v
				}
				if v := in.at(c, 2*y+1, 2*x+1); v > m {
					m = v
				}
				out.set(c, y, x, m)
			}
		}
	}
	stats.ActivationBytes += 4 * (len(in.Data) + len(out.Data))
	return out
}

// upsample2 doubles spatial resolution by nearest-neighbor replication.
type upsample2 struct{}

// WeightCount implements Layer.
func (upsample2) WeightCount() int { return 0 }

// Forward implements Layer.
func (upsample2) Forward(in *Tensor, stats *Stats) *Tensor {
	out := newTensor(in.C, in.H*2, in.W*2)
	for c := 0; c < in.C; c++ {
		for y := 0; y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				out.set(c, y, x, in.at(c, y/2, x/2))
			}
		}
	}
	stats.ActivationBytes += 4 * (len(in.Data) + len(out.Data))
	return out
}

// Net is a feed-forward stack of layers.
type Net struct {
	Layers []Layer
}

// forward runs the network and returns the final feature map plus stats.
func (n *Net) forward(in *Tensor) (*Tensor, Stats) {
	var stats Stats
	cur := in
	for _, l := range n.Layers {
		cur = l.Forward(cur, &stats)
	}
	return cur, stats
}

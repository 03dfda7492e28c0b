package minidnn

import (
	"fmt"
	"math"
	"math/rand"

	"fela/internal/tensor"
)

// Conv2D is a real 2-D convolution layer (NCHW, square kernels, stride
// 1, symmetric zero padding). Forward and backward run over im2col
// expansions of the input — contiguous row accumulations instead of
// strided gather loops — parallelized over disjoint row bands via the
// shared tensor kernel pool. Both passes reproduce the direct naive loops
// (kept below as test references) bit for bit: accumulation order per
// output element is unchanged, only the traversal moves.
type Conv2D struct {
	InC, OutC, K, Pad int
	InH, InW          int

	W, B   *tensor.Tensor // W shape (OutC, InC*K*K), B shape (OutC)
	gW, gB *tensor.Tensor
	lastX  *tensor.Tensor

	// cols is the grow-only im2col scratch from the last Forward: row
	// (n·OutH + i)·OutW + j holds output pixel (n,i,j)'s receptive
	// field in (ic,ki,kj) order — the exact order the naive loops walk,
	// with literal zeros where the window hangs over the padding. The
	// weight gradient's row accumulations over it therefore replay the
	// naive addition sequence.
	cols []float32
	// seed is Forward's grow-only row of each filter's bias, repeated
	// for a chunk of pixels: a chunk's output rows start as a copy of it.
	seed []float32

	out, dx *tensor.Tensor // reused buffers
}

// NewConv2D builds a convolution layer with N(0, 1/(InC·K²))
// initialization.
func NewConv2D(rng *rand.Rand, inC, outC, k, pad, inH, inW int) *Conv2D {
	if k <= 0 || inC <= 0 || outC <= 0 || inH < k-2*pad || inW < k-2*pad {
		panic(fmt.Sprintf("minidnn: bad conv geometry (%d,%d,k=%d,pad=%d,%dx%d)", inC, outC, k, pad, inH, inW))
	}
	fanIn := float64(inC * k * k)
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Pad: pad, InH: inH, InW: inW,
		W:  tensor.New(outC, inC*k*k).Randn(rng, 1/math.Sqrt(fanIn)),
		B:  tensor.New(outC),
		gW: tensor.New(outC, inC*k*k),
		gB: tensor.New(outC),
	}
}

// OutH and OutW are the output spatial dimensions.
func (c *Conv2D) OutH() int { return c.InH + 2*c.Pad - c.K + 1 }
func (c *Conv2D) OutW() int { return c.InW + 2*c.Pad - c.K + 1 }

// grow returns s resized to n elements of unspecified content, reusing
// its backing array when that is large enough: the grow-only scratch of
// a layer (tensor.Reuse for plain slices).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// at returns x[n][ch][i][j] honouring zero padding (the accessor of the
// naive references).
func (c *Conv2D) at(x *tensor.Tensor, n, ch, i, j int) float32 {
	if i < 0 || j < 0 || i >= c.InH || j >= c.InW {
		return 0
	}
	return x.Data[((n*c.InC+ch)*c.InH+i)*c.InW+j]
}

// Forward implements Layer. The input is (batch, InC*InH*InW) flattened
// row-major; the output is (batch, OutC*OutH*OutW).
//
// The pass parallelizes over output pixels (n,i,j), and a band goes a
// chunk of one sample's pixels at a time. For a chunk it fills a
// channel-major panel on the band's stack, whose row t holds tap t — in
// (ic,ki,kj) order — of every pixel of the chunk, and stores its
// transpose as the chunk's pixel-major rows of cols for the backward
// pass. Each filter's outputs over the chunk are then one row
// accumulation (tensor.AddRows), lanes across the chunk's pixels:
// seeded with the bias, since the naive kernel folds its products onto
// B[oc] and float addition is not associative, then advanced by
// W[oc][t] · panel[t] for every t in order. Every multiplier is added,
// zero weights included, as in the naive loop.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	inLen := c.InC * c.InH * c.InW
	if x.Dims() != 2 || x.Shape[1] != inLen {
		panic(fmt.Sprintf("minidnn: conv input shape %v, want (*,%d)", x.Shape, inLen))
	}
	c.lastX = x
	batch := x.Shape[0]
	hw, ow := c.OutH()*c.OutW(), c.OutW()
	rf := c.InC * c.K * c.K // receptive-field size: one im2col row
	rows := batch * hw
	c.cols = grow(c.cols, rows*rf)
	c.out = tensor.Reuse(c.out, batch, c.OutC*hw)
	// A chunk is as many pixels as the panel holds fields, a whole
	// number of 8-float vectors when it holds one, and one pixel when a
	// field is wider than the panel.
	maxSpan := max(1, panelLen/rf)
	if maxSpan >= 8 {
		maxSpan &^= 7
	}
	c.seed = grow(c.seed, c.OutC*maxSpan)
	for oc, b := range c.B.Data {
		row := c.seed[oc*maxSpan : (oc+1)*maxSpan]
		for s := range row {
			row[s] = b
		}
	}
	out, w, seed := c.out.Data, c.W.Data, c.seed
	flops := int64(rows) * int64(rf) * int64(c.OutC)
	tensor.ParallelRows(rows, flops, func(lo, hi int) {
		var buf [panelLen]float32
		panel := buf[:]
		if rf > len(buf) { // a field wider than the panel: one pixel at a time
			panel = make([]float32, rf)
		}
		for r := lo; r < hi; {
			n, ij := r/hw, r%hw
			span := min(maxSpan, hw-ij, hi-r)
			xn := x.Data[n*inLen : (n+1)*inLen]
			p := panel[:rf*span]
			for s := 0; s < span; { // one output row's pixels at a time
				i, j := (ij+s)/ow, (ij+s)%ow
				seg := min(ow-j, span-s)
				c.fillPanel(p, span, s, xn, i, j, seg)
				s += seg
			}
			tensor.Transpose(c.cols[r*rf:(r+span)*rf], p, rf, span)
			o := out[n*c.OutC*hw+ij:] // o[oc·hw+s] is output pixel (n,oc,ij+s)
			for oc := range c.OutC {
				orow := o[oc*hw:][:span]
				copy(orow, seed[oc*maxSpan:])
				tensor.AddRows(orow, w[oc*rf:(oc+1)*rf], p, span)
			}
			r += span
		}
	})
	return c.out
}

// panelLen is the size in floats of Forward's per-band panel, 16 KiB on
// the band's stack: 144 pixels of the CNN's 27-tap fields.
const panelLen = 4096

// fillPanel writes columns s0 … s0+seg-1 of the channel-major panel p,
// whose rows are stride floats apart: the taps of output pixels (i, j)
// … (i, j+seg-1) of one sample, from its (InC,InH,InW) planes x. For a
// fixed tap (ic,ki,kj) the pixels' values are consecutive elements of
// one input row, so a panel row segment is a straight copy with literal
// zeros where the window hangs over the padding.
func (c *Conv2D) fillPanel(p []float32, stride, s0 int, x []float32, i, j, seg int) {
	k := c.K
	for g := 0; g < c.InC*k; g++ { // g = ic·K + ki
		ii := i - c.Pad + g%k
		var src []float32 // input row ii of channel ic; nil when it is padding
		if ii >= 0 && ii < c.InH {
			src = x[(g/k*c.InH+ii)*c.InW:][:c.InW]
		}
		for kj := 0; kj < k; kj++ {
			dst := p[(g*k+kj)*stride+s0:][:seg]
			if src == nil {
				clear(dst)
				continue
			}
			j0 := j - c.Pad + kj // input column of the segment's first pixel
			sLo := min(max(0, -j0), seg)
			sHi := max(sLo, min(seg, c.InW-j0))
			clear(dst[:sLo])
			copy(dst[sLo:sHi], src[j0+sLo:])
			clear(dst[sHi:])
		}
	}
}

// Backward implements Layer. Two band-parallel passes replace the naive
// single pass, each preserving the naive accumulation order: the input
// gradient here, the parameter gradients in backwardParams. dx is
// parallel over samples — a sample's dx rows are touched by no other
// sample, and within one sample the loops below are the naive loops
// verbatim.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastX == nil {
		panic("minidnn: conv Backward before Forward")
	}
	batch := c.lastX.Shape[0]
	oh, ow := c.OutH(), c.OutW()
	rf := c.InC * c.K * c.K
	inLen := c.InC * c.InH * c.InW
	flops := int64(batch) * int64(oh*ow) * int64(rf) * int64(c.OutC)
	c.dx = tensor.Reuse(c.dx, batch, inLen)
	dx := c.dx
	tensor.ParallelRows(batch, flops, func(nLo, nHi int) {
		clear(dx.Data[nLo*inLen : nHi*inLen])
		for n := nLo; n < nHi; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				for i := 0; i < oh; i++ {
					for j := 0; j < ow; j++ {
						g := grad.Data[(n*c.OutC+oc)*oh*ow+i*ow+j]
						if g == 0 {
							continue
						}
						for ic := 0; ic < c.InC; ic++ {
							for ki := 0; ki < c.K; ki++ {
								ii := i - c.Pad + ki
								if ii < 0 || ii >= c.InH {
									continue
								}
								for kj := 0; kj < c.K; kj++ {
									jj := j - c.Pad + kj
									if jj < 0 || jj >= c.InW {
										continue
									}
									wIdx := oc*rf + (ic*c.K+ki)*c.K + kj
									dx.Data[((n*c.InC+ic)*c.InH+ii)*c.InW+jj] += float32(g * c.W.Data[wIdx])
								}
							}
						}
					}
				}
			}
		}
	})
	c.backwardParams(grad)
	return dx
}

// backwardParams implements paramGrader: gW and gB only, the whole
// backward pass of a first layer. It is parallel over output channels —
// channel oc owns gW row oc and gB[oc] alone, and for a fixed oc the
// naive kernel visits contributions in ascending (n,i,j) order,
// skipping zero gradients, which is exactly the order of the loop
// below. The weight gradient rides the im2col rows cached by Forward
// (identical values to the strided gathers, including the padding
// zeros): per sample it is gW[oc] += Σ g(n,oc,i,j)·cols[(n,i,j)] and
// gB[oc] += Σ g(n,oc,i,j) over the non-zero g, one tensor.AccumPlane
// pass over the plane.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	if c.lastX == nil {
		panic("minidnn: conv Backward before Forward")
	}
	batch := c.lastX.Shape[0]
	hw := c.OutH() * c.OutW()
	rf := c.InC * c.K * c.K
	flops := int64(batch) * int64(hw) * int64(rf) * int64(c.OutC)
	tensor.ParallelRows(c.OutC, flops, func(ocLo, ocHi int) {
		for oc := ocLo; oc < ocHi; oc++ {
			gw := c.gW.Data[oc*rf : (oc+1)*rf]
			gb := c.gB.Data[oc]
			for n := 0; n < batch; n++ {
				plane := grad.Data[(n*c.OutC+oc)*hw:][:hw]
				gb = tensor.AccumPlane(gw, plane, c.cols[n*hw*rf:(n+1)*hw*rf], gb)
			}
			c.gB.Data[oc] = gb
		}
	})
}

// forwardNaive and backwardNaive are the original direct-loop kernels,
// kept as the references the bit-identity tests compare the im2col
// band-parallel passes against.
func (c *Conv2D) forwardNaive(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Shape[1] != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("minidnn: conv input shape %v, want (*,%d)", x.Shape, c.InC*c.InH*c.InW))
	}
	c.lastX = x
	batch := x.Shape[0]
	oh, ow := c.OutH(), c.OutW()
	out := tensor.New(batch, c.OutC*oh*ow)
	for n := 0; n < batch; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					sum := c.B.Data[oc]
					for ic := 0; ic < c.InC; ic++ {
						for ki := 0; ki < c.K; ki++ {
							for kj := 0; kj < c.K; kj++ {
								w := c.W.Data[oc*c.InC*c.K*c.K+(ic*c.K+ki)*c.K+kj]
								sum += float32(w * c.at(x, n, ic, i-c.Pad+ki, j-c.Pad+kj))
							}
						}
					}
					out.Data[(n*c.OutC+oc)*oh*ow+i*ow+j] = sum
				}
			}
		}
	}
	return out
}

func (c *Conv2D) backwardNaive(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastX == nil {
		panic("minidnn: conv Backward before Forward")
	}
	batch := c.lastX.Shape[0]
	oh, ow := c.OutH(), c.OutW()
	dx := tensor.New(batch, c.InC*c.InH*c.InW)
	for n := 0; n < batch; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					g := grad.Data[(n*c.OutC+oc)*oh*ow+i*ow+j]
					if g == 0 {
						continue
					}
					c.gB.Data[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						for ki := 0; ki < c.K; ki++ {
							for kj := 0; kj < c.K; kj++ {
								ii, jj := i-c.Pad+ki, j-c.Pad+kj
								wIdx := oc*c.InC*c.K*c.K + (ic*c.K+ki)*c.K + kj
								c.gW.Data[wIdx] += float32(g * c.at(c.lastX, n, ic, ii, jj))
								if ii >= 0 && jj >= 0 && ii < c.InH && jj < c.InW {
									dx.Data[((n*c.InC+ic)*c.InH+ii)*c.InW+jj] += float32(g * c.W.Data[wIdx])
								}
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gW, c.gB} }

// ZeroGrads implements gradZeroer.
func (c *Conv2D) ZeroGrads() {
	c.gW.Zero()
	c.gB.Zero()
}

// MaxPool2D is a parameter-free max pooling layer (square window, stride
// = window).
type MaxPool2D struct {
	C, InH, InW, K int

	lastX   *tensor.Tensor
	argmax  []int32        // flat input index chosen per output element; reused
	out, dx *tensor.Tensor // reused buffers
}

// NewMaxPool2D builds the layer; the input spatial dims must divide by K.
func NewMaxPool2D(c, inH, inW, k int) *MaxPool2D {
	if inH%k != 0 || inW%k != 0 {
		panic(fmt.Sprintf("minidnn: pool %dx%d not divisible by %d", inH, inW, k))
	}
	return &MaxPool2D{C: c, InH: inH, InW: inW, K: k}
}

// OutH and OutW are the output spatial dimensions.
func (p *MaxPool2D) OutH() int { return p.InH / p.K }
func (p *MaxPool2D) OutW() int { return p.InW / p.K }

// Forward implements Layer. A window's maximum is the first tap (in
// ki,kj order) that no later tap exceeds: the running maximum starts at
// the first tap and moves only on a strict `>`, so ties keep the
// earliest tap, and a window of NaNs or of -Inf — a diverged activation
// — still has an argmax inside the window (its first tap) instead of
// none. The move is a masked select of index and value bits on the
// comparison's 0/1 outcome, not a branch: which of two activations is
// larger is a coin toss to a branch predictor. A row of windows goes
// tap by tap, every window of the row taking its tap t before any takes
// tap t+1, so the running maxima of a row are independent chains in
// flight together instead of one chain at a time. A 2×2 window — the
// CNN's — goes eight windows at a time on the AVX2 tile
// (tensor.MaxPool2) with the same compare and select; the loop here
// takes what is left of each row, and every window on the portable
// path.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Shape[1] != p.C*p.InH*p.InW {
		panic(fmt.Sprintf("minidnn: pool input shape %v, want (*,%d)", x.Shape, p.C*p.InH*p.InW))
	}
	p.lastX = x
	oh, ow := p.OutH(), p.OutW()
	planes := x.Shape[0] * p.C
	p.out = tensor.Reuse(p.out, x.Shape[0], p.C*oh*ow)
	p.argmax = grow(p.argmax, p.out.Len())
	in, k, inW := x.Data, p.K, p.InW
	j0 := 0 // the windows of every row the tile took
	if k == 2 {
		j0 = tensor.MaxPool2(p.out.Data, p.argmax, in, inW)
	}
	for r := 0; r < planes*oh; r++ { // r = plane·OutH + i: one row of windows
		base := (r/oh*p.InH+r%oh*k)*inW + j0*k // the row's first tap from window j0 on
		o, arg := p.out.Data[r*ow+j0:(r+1)*ow], p.argmax[r*ow+j0:(r+1)*ow]
		for j := range o {
			o[j], arg[j] = in[base+j*k], int32(base+j*k)
		}
		for t := 1; t < k*k; t++ { // the windows' later taps, in (ki,kj) order
			tap := base + t/k*inW + t%k
			for j, cur := range o {
				v := in[tap+j*k]
				gt := 0
				if v > cur {
					gt = 1
				}
				arg[j] += (int32(tap+j*k) - arg[j]) & int32(-gt)
				bits := math.Float32bits(cur)
				o[j] = math.Float32frombits(bits ^ (bits^math.Float32bits(v))&uint32(-gt))
			}
		}
	}
	return p.out
}

// Backward implements Layer: the gradient routes to each window's
// argmax, onto a cleared dx. A 2×2 window goes eight windows at a time
// on the AVX2 tile (tensor.MaxPool2Grad), which writes all four of a
// window's taps; the loop here clears and routes what is left of each
// row of windows, and every window on the portable path.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastX == nil {
		panic("minidnn: pool Backward before Forward")
	}
	p.dx = tensor.Reuse(p.dx, p.lastX.Shape...)
	dx, k, inW, ow := p.dx.Data, p.K, p.InW, p.OutW()
	j0 := 0 // the windows of every row the tile took
	if k == 2 {
		j0 = tensor.MaxPool2Grad(dx, grad.Data, p.argmax, inW)
	}
	for r := 0; r*ow < len(p.argmax); r++ { // one row of windows: input rows r·K … r·K+K-1
		for i := r * k; i < (r+1)*k; i++ {
			clear(dx[i*inW+j0*k : (i+1)*inW])
		}
		for o := r*ow + j0; o < (r+1)*ow; o++ {
			dx[p.argmax[o]] += grad.Data[o]
		}
	}
	return p.dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// NewCNN builds a small LeNet-style CNN for (c, h, w) image inputs:
// Conv(k=3,pad=1,filters) → ReLU → MaxPool(2) → Dense(hidden) → ReLU →
// Dense(classes).
func NewCNN(seed int64, c, h, w, filters, hidden, classes int) *Network {
	rng := rand.New(rand.NewSource(seed))
	conv := NewConv2D(rng, c, filters, 3, 1, h, w)
	pool := NewMaxPool2D(filters, conv.OutH(), conv.OutW(), 2)
	flat := filters * pool.OutH() * pool.OutW()
	return &Network{Layers: []Layer{
		conv,
		&ReLU{},
		pool,
		NewDense(rng, flat, hidden),
		&ReLU{},
		NewDense(rng, hidden, classes),
	}}
}

// SyntheticImages generates a deterministic image-classification
// dataset: k class templates of shape (c,h,w) plus noise, n samples,
// flattened row-major for the Network input.
func SyntheticImages(seed int64, n, c, h, w, k int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dim := c * h * w
	templates := make([][]float64, k)
	for t := range templates {
		templates[t] = make([]float64, dim)
		for d := range templates[t] {
			templates[t][d] = rng.NormFloat64() * 2
		}
	}
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % k
		labels[i] = cls
		for d := 0; d < dim; d++ {
			x.Data[i*dim+d] = float32(templates[cls][d] + 0.5*rng.NormFloat64())
		}
	}
	return &Dataset{X: x, Labels: labels}
}

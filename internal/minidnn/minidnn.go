// Package minidnn is a small, real neural-network training engine built
// on internal/tensor. The real-time Fela engine (internal/rt) uses it to
// prove the paper's reproducibility claim (Table II, last column):
// token-scheduled BSP training computes bit-identical parameters to
// sequential large-batch SGD, no matter how tokens are distributed or
// how stragglers reshuffle the work.
//
// Everything is deterministic: initialization comes from a seed, and
// gradient aggregation helpers preserve a canonical accumulation order.
package minidnn

import (
	"fmt"
	"math"
	"math/rand"

	"fela/internal/tensor"
)

// Layer is a differentiable module. Forward consumes a (batch×in)
// tensor; Backward consumes the gradient with respect to the output of
// the most recent Forward and returns the gradient with respect to its
// input, accumulating parameter gradients internally.
//
// Buffer ownership: a layer computes into grow-only buffers it owns
// (tensor.Reuse), so a token's forward/backward allocates nothing once
// the buffers have grown to the batch size. The tensor a layer returns
// is therefore valid until that layer's next Forward or Backward; a
// caller that needs it longer clones it. A layer keeps a reference to,
// and never writes, the input of its last Forward. A Network and its
// layers are single-goroutine; distinct networks may run concurrently.
type Layer interface {
	// Forward computes the layer output for the batch.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward propagates the output gradient, accumulating parameter
	// gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the accumulated parameter gradients, aligned with
	// Params.
	Grads() []*tensor.Tensor
}

// gradZeroer is the Layer half that layers with parameters implement:
// clear the accumulated gradients. Network.ZeroGrads calls it on every
// layer that has it.
type gradZeroer interface {
	ZeroGrads()
}

// paramGrader is the optional half of Backward: accumulate the parameter
// gradients and compute no input gradient. Network.Loss calls it on
// layer 0, whose input gradient nobody reads.
type paramGrader interface {
	backwardParams(grad *tensor.Tensor)
}

// Dense is a fully connected layer with bias: y = x·W + b.
//
// gW, the parameter-sized gradient, exists only once something forms
// it: a layer is built with gW marked zero (gWZero) and unallocated,
// and the first multi-row backward pass or Grads allocates it. A layer
// that only ever takes one-row tokens (their gradients leave as
// factors, GradsOrFactors) or never runs backward (the coordinator's
// copy of the model) holds none.
//
// ZeroGrads clears gB but only marks gW as zero: the next backward pass
// stores its weight gradient (tensor.MatMulATInto) instead of adding it
// to zeros, which gives the same bits without the clearing pass, and
// Grads clears a gW that is still marked, so every reader sees what
// eager zeroing gives.
//
// A one-row backward pass onto a gW marked zero defers the product
// altogether: its weight gradient is the outer product x⊗δ of the input
// row and the output gradient, and the layer keeps copies of the two
// (fx, fd; gWRank1) instead of forming in×out floats. The copies are
// taken, not referenced, because the input row is another layer's
// buffer — a ReLU's output, which its Backward overwrites with the
// input gradient. Grads forms the product by the same MatMulATInto, and
// so does an accumulating backward pass before it adds; GradsOrFactors
// hands the factors out instead.
type Dense struct {
	W, B    *tensor.Tensor
	gW, gB  *tensor.Tensor
	gWZero  bool
	gWRank1 bool
	fx, fd  *tensor.Tensor // gW's factors while gWRank1: 1×in, 1×out
	lastX   *tensor.Tensor

	out, dx *tensor.Tensor // reused buffers
}

// NewDense returns a Dense layer with Xavier-style N(0, 1/in)
// initialization from the rng.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		W:      tensor.New(in, out).Randn(rng, 1/math.Sqrt(float64(in))),
		B:      tensor.New(out),
		gB:     tensor.New(out),
		gWZero: true,
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.lastX = x
	out := tensor.MatMulInto(d.out, x, d.W)
	d.out = out
	cols := d.B.Len()
	for i := 0; i < out.Shape[0]; i++ {
		for j := 0; j < cols; j++ {
			out.Data[i*cols+j] += d.B.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	d.dx = tensor.MatMulBTInto(d.dx, grad, d.W)
	return d.dx
}

// backwardParams implements paramGrader.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	if d.lastX == nil {
		panic("minidnn: Backward before Forward")
	}
	cols := d.B.Len()
	if grad.Dims() != 2 || grad.Shape[1] != cols {
		panic(fmt.Sprintf("minidnn: Dense output gradient %v for %d outputs", grad.Shape, cols))
	}
	switch {
	case d.gWZero && grad.Shape[0] == 1:
		d.fx = tensor.Reuse(d.fx, d.lastX.Shape...)
		copy(d.fx.Data, d.lastX.Data)
		d.fd = tensor.Reuse(d.fd, grad.Shape...)
		copy(d.fd.Data, grad.Data)
		d.gWZero, d.gWRank1 = false, true
	case d.gWZero:
		d.gW = tensor.MatMulATInto(d.gW, d.lastX, grad)
		d.gWZero = false
	default:
		d.formGW()
		tensor.MatMulATAdd(d.gW, d.lastX, grad)
	}
	for i := 0; i < grad.Shape[0]; i++ {
		for j := 0; j < cols; j++ {
			d.gB.Data[j] += grad.Data[i*cols+j]
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// formGW turns a deferred gW into its bits, allocating it the first
// time: a marked zero into zeros, factors into their product.
func (d *Dense) formGW() {
	switch {
	case d.gWZero:
		d.gW = tensor.Reuse(d.gW, d.W.Shape...)
		d.gW.Zero()
	case d.gWRank1:
		d.gW = tensor.MatMulATInto(d.gW, d.fx, d.fd)
	}
	d.gWZero, d.gWRank1 = false, false
}

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor {
	d.formGW()
	return []*tensor.Tensor{d.gW, d.gB}
}

// ZeroGrads implements gradZeroer: gB now, gW at its next write or read.
func (d *Dense) ZeroGrads() {
	d.gWZero, d.gWRank1 = true, false
	d.gB.Zero()
}

// ReLU is a parameter-free rectifier layer.
type ReLU struct {
	lastX *tensor.Tensor
	out   *tensor.Tensor // reused buffer: the output, then its input gradient
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.lastX = x
	r.out = tensor.ReLUInto(r.out, x)
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastX == nil {
		panic("minidnn: Backward before Forward")
	}
	// The output of the last Forward has had its one reader by now (the
	// next layer's Backward ran first), so its buffer takes the input
	// gradient: same shape, and one activation-sized buffer less.
	r.out = tensor.ReLUGradInto(r.out, r.lastX, grad)
	return r.out
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Network is an ordered stack of layers trained with softmax
// cross-entropy.
type Network struct {
	Layers []Layer
}

// NewMLP builds a multi-layer perceptron with the given layer widths
// (input, hidden..., classes), ReLU between Dense layers.
func NewMLP(seed int64, widths ...int) *Network {
	if len(widths) < 2 {
		panic("minidnn: MLP needs at least input and output widths")
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	for i := 0; i < len(widths)-1; i++ {
		n.Layers = append(n.Layers, NewDense(rng, widths[i], widths[i+1]))
		if i < len(widths)-2 {
			n.Layers = append(n.Layers, &ReLU{})
		}
	}
	return n
}

// Forward runs the full stack.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Loss computes mean cross-entropy and backpropagates, accumulating
// parameter gradients. It returns the loss. The gradient with respect
// to the network input has no reader, so layer 0 is asked for its
// parameter gradients only when it can tell the two apart (paramGrader):
// the same gW/gB, without the input-gradient kernel.
func (n *Network) Loss(x *tensor.Tensor, labels []int) float64 {
	logits := n.Forward(x)
	loss, grad := tensor.SoftmaxCrossEntropy(logits, labels)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		if pg, ok := l.(paramGrader); ok && i == 0 {
			pg.backwardParams(grad)
		} else {
			grad = l.Backward(grad)
		}
	}
	return loss
}

// Params returns every parameter tensor in a canonical order.
func (n *Network) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads returns every gradient tensor aligned with Params.
func (n *Network) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// Rank1 is a weight gradient held as the factors of its outer product:
// the gradient is X⊗D, len(X)·len(D) floats, row i being X[i]·D.
type Rank1 struct{ X, D []float32 }

// GradsOrFactors is Grads for a reader that takes a rank-1 weight
// gradient as its factors: where a Dense layer still holds gW as x⊗δ
// (after a one-row backward pass on cleared gradients), the entry of
// grads is nil and the aligned entry of factors holds x and δ; every
// other gradient is in grads as Grads gives it, with a zero Rank1
// beside it. The factors are the layer's buffers, valid until its next
// backward pass or ZeroGrads.
func (n *Network) GradsOrFactors() (grads []*tensor.Tensor, factors []Rank1) {
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok && d.gWRank1 {
			grads = append(grads, nil, d.gB)
			factors = append(factors, Rank1{X: d.fx.Data, D: d.fd.Data}, Rank1{})
			continue
		}
		gs := l.Grads()
		grads = append(grads, gs...)
		factors = append(factors, make([]Rank1, len(gs))...)
	}
	return grads, factors
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		if z, ok := l.(gradZeroer); ok {
			z.ZeroGrads()
		}
	}
}

// SGDStep applies params -= lr * grads and zeroes the gradients.
func (n *Network) SGDStep(lr float32) {
	params, grads := n.Params(), n.Grads()
	for i := range params {
		params[i].AddScaled(grads[i], -lr)
	}
	n.ZeroGrads()
}

// SetParams copies the given flat parameter tensors into the network
// (aligned with Params order).
func (n *Network) SetParams(ps []*tensor.Tensor) {
	params := n.Params()
	if len(ps) != len(params) {
		panic(fmt.Sprintf("minidnn: SetParams got %d tensors, want %d", len(ps), len(params)))
	}
	for i, p := range params {
		if p.Len() != ps[i].Len() {
			panic("minidnn: SetParams size mismatch")
		}
		copy(p.Data, ps[i].Data)
	}
}

// CloneParams returns deep copies of the parameters.
func (n *Network) CloneParams() []*tensor.Tensor {
	params := n.Params()
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

// CloneGrads returns deep copies of the accumulated gradients.
func (n *Network) CloneGrads() []*tensor.Tensor {
	grads := n.Grads()
	out := make([]*tensor.Tensor, len(grads))
	for i, g := range grads {
		out[i] = g.Clone()
	}
	return out
}

// ParamsEqual reports bitwise equality of two parameter sets.
func ParamsEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Accuracy computes classification accuracy on the dataset.
func (n *Network) Accuracy(x *tensor.Tensor, labels []int) float64 {
	pred := tensor.Argmax(n.Forward(x))
	hits := 0
	for i, p := range pred {
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(labels))
}

// Dataset is a labelled set of feature rows.
type Dataset struct {
	X      *tensor.Tensor
	Labels []int
}

// SyntheticBlobs generates a deterministic classification dataset: k
// Gaussian blobs in dim dimensions, n samples.
func SyntheticBlobs(seed int64, n, dim, k int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 3
		}
	}
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		labels[i] = c
		for d := 0; d < dim; d++ {
			x.Data[i*dim+d] = float32(centers[c][d] + rng.NormFloat64())
		}
	}
	return &Dataset{X: x, Labels: labels}
}

// Batch returns rows [lo, hi) of the dataset as a view: the tensor
// shares the dataset's storage (a token's forward/backward only reads
// it) and must not be written.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	cols := d.X.Shape[1]
	return tensor.FromSlice(d.X.Data[lo*cols:hi*cols], hi-lo, cols), d.Labels[lo:hi]
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

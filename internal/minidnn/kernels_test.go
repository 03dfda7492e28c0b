package minidnn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fela/internal/tensor"
)

// wantBits fails unless got and want hold the same bit patterns — signed
// zeros, denormals and infinities exactly, a NaN exactly where the
// reference has one (which NaN is the compiler's choice of destination
// register; see the helper of the same name in internal/tensor).
func wantBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)",
				what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

func wantAllBits(t *testing.T, what string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tensors, want %d", what, len(got), len(want))
	}
	for i := range want {
		wantBits(t, fmt.Sprintf("%s[%d]", what, i), got[i], want[i])
	}
}

var (
	negZero = math.Float32frombits(0x80000000)
	denorm  = math.Float32frombits(1)
	negInf  = float32(math.Inf(-1))
	nan     = float32(math.NaN())
)

// salted returns normal values with about a quarter replaced by ±0 and
// denormals (which keep results finite, so every output element tests
// them) and `wild` entries by ±Inf or NaN. Zeros make up an eighth: the
// gradient kernels skip them.
func salted(rng *rand.Rand, wild int, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols).Randn(rng, 1)
	special := []float32{0, 0, negZero, negZero, denorm, -denorm}
	for i := range t.Data {
		if rng.Intn(4) == 0 {
			t.Data[i] = special[rng.Intn(len(special))]
		}
	}
	for ; wild > 0; wild-- {
		t.Data[rng.Intn(len(t.Data))] = []float32{-negInf, negInf, nan}[rng.Intn(3)]
	}
	return t
}

// checkConv compares Forward, Backward and the parameter-only backward
// of one geometry against the naive loops, bit pattern for bit pattern.
// The gradients start from a non-zero gW/gB: the kernels accumulate onto
// what is there. About a quarter of the weights are ±0 and of the biases
// -0: the forward pass adds a zero weight's product like any other (0·Inf
// is NaN, and -0 + 0·x is +0), so a kernel that skipped it would show.
// A routed gradient is one a 2×2 max-pool and a ReLU leave: at most one
// entry in four non-zero.
func checkConv(t *testing.T, name string, rng *rand.Rand, wild int, routed bool, batch, inC, outC, k, pad, h, w int) {
	t.Helper()
	newLayer := func() *Conv2D {
		c := NewConv2D(rand.New(rand.NewSource(9)), inC, outC, k, pad, h, w)
		c.B.Randn(rand.New(rand.NewSource(10)), 1)
		c.gW.Randn(rand.New(rand.NewSource(11)), 1)
		c.gB.Randn(rand.New(rand.NewSource(12)), 1)
		zeros := rand.New(rand.NewSource(13))
		for i := range c.W.Data {
			if zeros.Intn(4) == 0 {
				c.W.Data[i] = []float32{0, negZero}[zeros.Intn(2)]
			}
		}
		for i := range c.B.Data {
			if zeros.Intn(4) == 0 {
				c.B.Data[i] = negZero
			}
		}
		return c
	}
	x := salted(rng, wild, batch, inC*h*w)
	ref := newLayer()
	wantOut := ref.forwardNaive(x)
	grad := salted(rng, wild, batch, wantOut.Shape[1])
	if routed {
		for i := range grad.Data {
			if i%4 != 3 || rng.Intn(2) == 0 { // the window's one tap, then the ReLU
				grad.Data[i] = []float32{0, negZero}[rng.Intn(2)]
			}
		}
		for ; wild > 0 && len(grad.Data) >= 4; wild-- { // ±Inf and NaN on surviving taps
			grad.Data[rng.Intn(len(grad.Data)/4)*4+3] = []float32{-negInf, negInf, nan}[rng.Intn(3)]
		}
	}
	wantDx := ref.backwardNaive(grad)

	full := newLayer()
	wantBits(t, name+" Forward", full.Forward(x), wantOut)
	wantBits(t, name+" Backward dx", full.Backward(grad), wantDx)
	wantBits(t, name+" Backward gW", full.gW, ref.gW)
	wantBits(t, name+" Backward gB", full.gB, ref.gB)

	params := newLayer()
	params.Forward(x)
	params.backwardParams(grad)
	wantBits(t, name+" backwardParams gW", params.gW, ref.gW)
	wantBits(t, name+" backwardParams gB", params.gB, ref.gB)
}

// TestConvBitPatterns covers what TestConvParallelBitIdentical's one
// geometry does not: output-channel counts around the AVX2 vector and
// the CNN's 16, windows that hang over (or miss) the image on every
// side, fields of one vector and a tail, of more than one 32-float block
// of the plane pass and larger than one panel of the forward pass,
// planes with a tail of fewer than eight pixels, operands salted with
// ±0, denormals, ±Inf and NaN, output gradients as dense as a ReLU's and
// as sparse as a max-pool's — and, sized to clear the parallel cutoff,
// fan-out 1, 2 and 8 for every channel count — on each kernel path.
func TestConvBitPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	geoms := []struct{ inC, k, pad, h, w int }{
		{3, 3, 1, 7, 6},   // the CNN's geometry
		{2, 5, 2, 6, 9},   // two taps of padding
		{1, 2, 0, 5, 5},   // no padding, even kernel
		{2, 3, 3, 4, 5},   // pad ≥ k: windows that miss the image
		{1, 3, 1, 1, 1},   // kernel wider than the image
		{1, 1, 0, 20, 20}, // 400-pixel planes: two sumNonZero chunks
		{4, 3, 1, 5, 7},   // 36 taps: two blocks of the plane pass
		{460, 3, 1, 2, 2}, // 4140 taps: a field larger than the forward panel
	}
	outCs := []int{1, 3, 4, 5, 8, 11, 16, 17}
	t.Cleanup(func() { tensor.SetParallelism(0) })
	eachPath(func(path string) {
		tensor.SetParallelism(0)
		for _, g := range geoms {
			for _, outC := range outCs {
				for _, wild := range []int{0, 3} {
					for _, routed := range []bool{false, true} {
						name := fmt.Sprintf("%s/c%dk%dp%d_%dx%d/outC%d/wild%d/routed=%v", path, g.inC, g.k, g.pad, g.h, g.w, outC, wild, routed)
						checkConv(t, name, rng, wild, routed, 3, g.inC, outC, g.k, g.pad, g.h, g.w)
					}
				}
			}
		}
		for _, par := range []int{1, 2, 8} {
			tensor.SetParallelism(par)
			for _, outC := range outCs {
				// 15×17 output pixels × 27 taps per sample: enough samples
				// that batch·hw·rf·outC clears the 2²⁰-MAC parallel cutoff.
				batch := (1<<20)/(15*17*27*outC) + 2
				checkConv(t, fmt.Sprintf("%s/par%d/outC%d", path, par, outC), rng, 2, outC%2 == 0, batch, 3, outC, 3, 1, 15, 17)
			}
		}
	})
}

// TestConvZeroGradientIsSkippedNotAdded: a zero output gradient adds
// nothing — not even +0, which would turn a -0 accumulator into +0. The
// one way to see the difference is to start gW and gB at -0. The
// geometries take the plane pass through whole vectors (a 48-pixel
// plane), a tail of three pixels and two 32-float blocks of a 36-tap
// field, over the CNN's 16 channels.
func TestConvZeroGradientIsSkippedNotAdded(t *testing.T) {
	geoms := []struct{ inC, outC, h, w int }{{1, 5, 4, 12}, {4, 16, 5, 7}}
	eachPath(func(path string) {
		for _, g := range geoms {
			c := NewConv2D(rand.New(rand.NewSource(1)), g.inC, g.outC, 3, 1, g.h, g.w)
			for _, gr := range c.Grads() {
				for i := range gr.Data {
					gr.Data[i] = negZero
				}
			}
			out := c.Forward(tensor.New(2, g.inC*g.h*g.w).Randn(rand.New(rand.NewSource(2)), 1))
			grad := tensor.New(out.Shape...)
			for i := range grad.Data {
				if i%3 == 0 {
					grad.Data[i] = negZero
				}
			}
			c.Backward(grad)
			for _, gr := range c.Grads() {
				for i, v := range gr.Data {
					if math.Float32bits(v) != math.Float32bits(negZero) {
						t.Fatalf("%s %+v: gradient element %d is %v (%#08x) after an all-zero backward pass, want -0", path, g, i, v, math.Float32bits(v))
					}
				}
			}
		}
	})
}

// poolNaive is the max-pool loop as it was before the first-tap seed: a
// -Inf running maximum that a tap replaces on a strict `>`. On windows
// that hold anything above -Inf in a place a NaN does not precede, the
// two agree — the new kernel must pick the same earliest maximum.
func poolNaive(p *MaxPool2D, x *tensor.Tensor) (out *tensor.Tensor, argmax []int32) {
	oh, ow := p.OutH(), p.OutW()
	out = tensor.New(x.Shape[0], p.C*oh*ow)
	for pl := 0; pl < x.Shape[0]*p.C; pl++ {
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				best, bestIdx := negInf, -1
				for ki := 0; ki < p.K; ki++ {
					for kj := 0; kj < p.K; kj++ {
						idx := (pl*p.InH+i*p.K+ki)*p.InW + j*p.K + kj
						if v := x.Data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				out.Data[len(argmax)] = best
				argmax = append(argmax, int32(bestIdx))
			}
		}
	}
	return out, argmax
}

// TestMaxPoolDivergedWindow: a window that is all -Inf or all NaN used
// to leave argmax at -1 (nothing is `>` the -Inf seed) and Backward
// then indexed dx[-1]. Seeded from its first tap, such a window routes
// its gradient to that tap and the divergence shows in the loss instead
// of as a crash; a NaN in first place holds it, a later NaN never wins.
// The 4×4 block of windows below repeats nine times across the plane,
// so that each kind of window lands on the AVX2 tile's lanes and on the
// Go loop's tail, on each kernel path.
func TestMaxPoolDivergedWindow(t *testing.T) {
	block := []float32{
		negInf, negInf, nan, nan,
		negInf, negInf, nan, nan,
		nan, 5, 1, nan,
		7, 9, 3, 2,
	}
	blockArg := []int32{0, 2, 8, 14} // the windows' argmax inside the block
	const reps, w = 9, 9 * 4
	x := tensor.New(1, 4*w)
	for i := range x.Data {
		x.Data[i] = block[i/w*4+i%4]
	}
	eachPath(func(path string) {
		p := NewMaxPool2D(1, 4, w, 2)
		out := p.Forward(x)
		grad := tensor.New(1, 2*reps*2)
		for o := range grad.Data {
			grad.Data[o] = float32(o + 1)
		}
		dx := p.Backward(grad)
		for o := range out.Data {
			i, j := o/(2*reps), o%(2*reps) // window (i, j) is window (i, j%2) of block j/2
			local := blockArg[2*i+j%2]
			want := int32(int(local)/4*w + j/2*4 + int(local)%4)
			if p.argmax[o] != want {
				t.Errorf("%s window %d: argmax %d, want %d", path, o, p.argmax[o], want)
			}
			if got, wantV := out.Data[o], x.Data[want]; math.Float32bits(got) != math.Float32bits(wantV) && !(got != got && wantV != wantV) {
				t.Errorf("%s window %d: pooled %v, want %v", path, o, got, wantV)
			}
			if dx.Data[want] != grad.Data[o] {
				t.Errorf("%s: gradient of window %d not at input %d: %v", path, o, want, dx.Data[want])
			}
		}
	})
}

// TestMaxPoolEarliestMaximum: on ordinary windows — ties, ReLU zeros,
// signed zeros included — the branch-free select picks the tap the
// branching loop picks, for square windows of several sizes and rows of
// windows that fill the AVX2 tile's eight lanes, leave a tail, or are
// too short for it; and Backward gives the bits of clearing dx and
// adding each gradient at that tap into a buffer the last pass left
// NaNs in, on each kernel path.
func TestMaxPoolEarliestMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	eachPath(func(path string) {
		for _, k := range []int{1, 2, 3} {
			for _, ow := range []int{4, 8, 13, 21} {
				name := fmt.Sprintf("%s/k%d/ow%d", path, k, ow)
				p := NewMaxPool2D(3, 6*k, ow*k, k)
				x := tensor.New(5, 3*6*k*ow*k)
				for i := range x.Data {
					// Small integers tie often; half are clipped to ±0 as a
					// ReLU would.
					if v := float32(rng.Intn(7) - 3); v > 0 {
						x.Data[i] = v
					} else if rng.Intn(2) == 0 {
						x.Data[i] = negZero
					}
				}
				wantOut, wantArg := poolNaive(p, x)
				wantBits(t, name+" out", p.Forward(x), wantOut)
				for o, want := range wantArg {
					if p.argmax[o] != want {
						t.Fatalf("%s window %d: argmax %d, want %d", name, o, p.argmax[o], want)
					}
				}
				grad := salted(rng, 3, 5, wantOut.Shape[1])
				wantDx := tensor.New(x.Shape...)
				for o, in := range wantArg {
					wantDx.Data[in] += grad.Data[o]
				}
				stale := tensor.New(grad.Shape...)
				for i := range stale.Data {
					stale.Data[i] = nan
				}
				p.Backward(stale) // NaNs at every argmax for the next pass to overwrite
				wantBits(t, name+" dx", p.Backward(grad), wantDx)
			}
		}
	})
}

// netCases are the two network families at sizes whose kernels cross
// the 4-wide tiles with a tail (5 filters, 7 hidden units, 3 classes).
type netCase struct {
	name string
	net  func() *Network
	ds   *Dataset
}

func netCases() []netCase {
	return []netCase{
		{"mlp", func() *Network { return NewMLP(5, 10, 7, 3) }, SyntheticBlobs(6, 40, 10, 3)},
		{"cnn", func() *Network { return NewCNN(5, 2, 6, 6, 5, 7, 3) }, SyntheticImages(6, 40, 2, 6, 6, 3)},
	}
}

// TestLossSkipsOnlyTheInputGradient: Loss asks layer 0 for parameter
// gradients alone; the gradients it leaves must be bit-identical to a
// full Backward chain over every layer, and Backward called directly
// must still return the input gradient.
func TestLossSkipsOnlyTheInputGradient(t *testing.T) {
	for _, tc := range netCases() {
		x, labels := tc.ds.Batch(0, 16)
		a := tc.net()
		lossA := a.Loss(x, labels)

		b := tc.net()
		logits := b.Forward(x)
		lossB, grad := tensor.SoftmaxCrossEntropy(logits, labels)
		for i := len(b.Layers) - 1; i >= 0; i-- {
			grad = b.Layers[i].Backward(grad)
		}
		if lossA != lossB {
			t.Errorf("%s: loss %v with the skip, %v without", tc.name, lossA, lossB)
		}
		wantAllBits(t, tc.name+" grads", a.Grads(), b.Grads())
		if grad.Shape[0] != 16 || grad.Shape[1] != x.Shape[1] {
			t.Errorf("%s: input gradient shape %v", tc.name, grad.Shape)
		}
		if _, ok := a.Layers[0].(paramGrader); !ok {
			t.Errorf("%s: layer 0 does not implement the skip", tc.name)
		}
	}
}

// TestLayerBuffersCarryNothingOver: the layers' grow-only buffers are
// reshaped, never reallocated, when the batch shrinks, and an Accuracy
// pass over the whole dataset leaves them larger than any token needs.
// Whatever ran before, a token's gradients must be those of a fresh
// network.
func TestLayerBuffersCarryNothingOver(t *testing.T) {
	for _, tc := range netCases() {
		fresh := func(lo, hi int) (float64, []*tensor.Tensor) {
			n := tc.net()
			x, labels := tc.ds.Batch(lo, hi)
			return n.Loss(x, labels), n.Grads()
		}
		used := tc.net()
		step := func(lo, hi int) {
			t.Helper()
			x, labels := tc.ds.Batch(lo, hi)
			used.ZeroGrads()
			loss := used.Loss(x, labels)
			wantLoss, want := fresh(lo, hi)
			if loss != wantLoss {
				t.Errorf("%s rows [%d,%d): loss %v, fresh network %v", tc.name, lo, hi, loss, wantLoss)
			}
			wantAllBits(t, fmt.Sprintf("%s rows [%d,%d)", tc.name, lo, hi), used.Grads(), want)
		}
		step(0, 16)
		step(16, 20)
		if acc, want := used.Accuracy(tc.ds.X, tc.ds.Labels), tc.net().Accuracy(tc.ds.X, tc.ds.Labels); acc != want {
			t.Errorf("%s: accuracy %v on used buffers, %v fresh", tc.name, acc, want)
		}
		step(20, 36)
		step(39, 40)
	}
}

// TestDenseZeroGradsDeferred: Dense.ZeroGrads marks gW zero instead of
// clearing it, and the next backward pass stores its product. Every call
// sequence must leave the bits a network that clears each gradient at
// ZeroGrads leaves: a read through Grads, Loss after Loss with and
// without a ZeroGrads first, a Forward with no Backward, and SGDStep.
// Both networks start from gradients salted with NaN, -0 and finite
// values that a missed clear or an add where a store belongs would carry
// through; the wide MLP's rows take the AVX2 tile's vectors and tails.
func TestDenseZeroGradsDeferred(t *testing.T) {
	eager := func(n *Network) {
		n.ZeroGrads()
		for _, g := range n.Grads() {
			g.Zero()
		}
	}
	salt := func(n *Network) {
		for _, g := range n.Grads() {
			for i := range g.Data {
				g.Data[i] = []float32{nan, negZero, 0.75, -3}[i%4]
			}
		}
	}
	cases := append(netCases(), netCase{"mlp-wide", func() *Network { return NewMLP(5, 12, 20, 9) }, SyntheticBlobs(6, 40, 12, 9)})
	eachPath(func(path string) {
		for _, tc := range cases {
			x, labels := tc.ds.Batch(0, 16)
			y, ylabels := tc.ds.Batch(16, 20)
			seqs := []struct {
				name string
				run  func(n *Network, zero func(*Network))
			}{
				{"ZeroGrads-Grads", func(n *Network, zero func(*Network)) {
					zero(n)
				}},
				{"ZeroGrads-Loss-Loss", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
					n.Loss(y, ylabels)
				}},
				{"Loss-Grads-Loss", func(n *Network, zero func(*Network)) {
					n.Loss(x, labels)
					n.Grads()
					n.Loss(y, ylabels)
				}},
				{"ZeroGrads-Forward-Grads", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
					zero(n)
					n.Forward(y)
				}},
				{"SGDStep", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
					n.SGDStep(0.1)
					n.Loss(y, ylabels)
					n.SGDStep(0.1)
					n.SGDStep(0.1)
				}},
			}
			for _, s := range seqs {
				got, want := tc.net(), tc.net()
				salt(got)
				salt(want)
				s.run(got, (*Network).ZeroGrads)
				s.run(want, eager)
				name := fmt.Sprintf("%s/%s/%s", path, tc.name, s.name)
				wantAllBits(t, name+" grads", got.Grads(), want.Grads())
				wantAllBits(t, name+" params", got.Params(), want.Params())
			}
		}
	})
}

// TestNetworksRunConcurrently: a Network is single-goroutine, but two
// of them share nothing except the tensor kernel pool. Run under -race
// (make kernels); the CNN is train-compute's, whose kernels fan out.
func TestNetworksRunConcurrently(t *testing.T) {
	ds := SyntheticImages(2, 32, 3, 32, 32, 10)
	newNet := func() *Network { return NewCNN(1, 3, 32, 32, 16, 64, 10) }
	want := make([][]*tensor.Tensor, 2)
	for g := range want {
		n := newNet()
		x, labels := ds.Batch(16*g, 16*g+16)
		n.Loss(x, labels)
		want[g] = n.Grads()
	}
	var wg sync.WaitGroup
	got := make([][]*tensor.Tensor, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := newNet()
			x, labels := ds.Batch(16*g, 16*g+16)
			for rep := 0; rep < 3; rep++ {
				n.ZeroGrads()
				n.Loss(x, labels)
			}
			got[g] = n.Grads()
		}()
	}
	wg.Wait()
	for g := range want {
		wantAllBits(t, fmt.Sprintf("network %d", g), got[g], want[g])
	}
}

// TestDenseRank1Deferred: a one-row backward pass onto cleared gradients
// leaves a Dense weight gradient as copies of its factors, x and δ. The
// product Grads forms, and the one an accumulating pass forms before it
// adds, must be the bits eager accumulation leaves; so must the product
// of the factors GradsOrFactors hands out, beside every other gradient
// as Grads gives it. In the MLP and the CNN the last Dense sits above a
// ReLU, whose Backward overwrites the buffer that was that Dense's
// input: factors kept by reference would read the input gradient there.
func TestDenseRank1Deferred(t *testing.T) {
	eager := func(n *Network) {
		n.ZeroGrads()
		for _, g := range n.Grads() {
			g.Zero()
		}
	}
	cases := append(netCases(), netCase{"mlp-wide", func() *Network { return NewMLP(5, 12, 20, 9) }, SyntheticBlobs(6, 40, 12, 9)})
	eachPath(func(path string) {
		for _, tc := range cases {
			x, labels := tc.ds.Batch(3, 4)
			y, ylabels := tc.ds.Batch(7, 8)
			seqs := []struct {
				name string
				run  func(n *Network, zero func(*Network))
			}{
				{"ZeroGrads-Loss", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
				}},
				{"ZeroGrads-Loss-Loss", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
					n.Loss(y, ylabels)
				}},
				{"Loss-ZeroGrads-Forward", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
					zero(n)
					n.Forward(y)
				}},
				{"SGDStep", func(n *Network, zero func(*Network)) {
					zero(n)
					n.Loss(x, labels)
					n.SGDStep(0.1)
					n.Loss(y, ylabels)
					n.SGDStep(0.1)
				}},
			}
			for _, s := range seqs {
				name := fmt.Sprintf("%s/%s/%s", path, tc.name, s.name)
				got, want, factored := tc.net(), tc.net(), tc.net()
				s.run(got, (*Network).ZeroGrads)
				s.run(want, eager)
				s.run(factored, (*Network).ZeroGrads)
				wantGrads := want.Grads()
				grads, factors := factored.GradsOrFactors()
				if len(grads) != len(wantGrads) || len(factors) != len(wantGrads) {
					t.Fatalf("%s: GradsOrFactors gave %d grads and %d factors, want %d", name, len(grads), len(factors), len(wantGrads))
				}
				for i, g := range grads {
					if f := factors[i]; f.X != nil {
						if g != nil {
							t.Fatalf("%s: gradient %d has both a tensor and factors", name, i)
						}
						g = tensor.MatMulATInto(nil, tensor.FromSlice(f.X, 1, len(f.X)), tensor.FromSlice(f.D, 1, len(f.D)))
						g.Shape = wantGrads[i].Shape
					}
					wantBits(t, fmt.Sprintf("%s factored grad %d", name, i), g, wantGrads[i])
				}
				wantAllBits(t, name+" grads", got.Grads(), wantGrads)
				wantAllBits(t, name+" params", got.Params(), want.Params())
			}
			// Only a one-row pass onto cleared gradients defers, and it
			// defers every Dense weight gradient: after a 16-row pass every
			// gradient is a tensor.
			n := tc.net()
			n.ZeroGrads()
			n.Loss(x, labels)
			dense, factored := 0, 0
			for _, l := range n.Layers {
				if _, ok := l.(*Dense); ok {
					dense++
				}
			}
			_, factors := n.GradsOrFactors()
			for _, f := range factors {
				if f.X != nil {
					factored++
				}
			}
			if factored != dense {
				t.Fatalf("%s/%s: a one-row pass left %d weight gradients as factors, want %d", path, tc.name, factored, dense)
			}
			n = tc.net()
			bx, blabels := tc.ds.Batch(0, 16)
			n.Loss(bx, blabels)
			if _, factors := n.GradsOrFactors(); slices.ContainsFunc(factors, func(f Rank1) bool { return f.X != nil }) {
				t.Fatalf("%s/%s: a 16-row pass left factors", path, tc.name)
			}
		}
	})
}

// TestDenseWeightGradientOnDemand: a Dense layer holds no in×out weight
// gradient until something forms one. A network that only runs Forward
// (the coordinator's copy of the model) and one that only takes one-row
// tokens (whose weight gradients leave as factors) hold none, built
// fresh or after ZeroGrads. Grads then forms it with the bits eager
// accumulation gives, and a multi-row pass forms it too.
func TestDenseWeightGradientOnDemand(t *testing.T) {
	eager := func(n *Network) {
		n.ZeroGrads()
		for _, g := range n.Grads() {
			g.Zero()
		}
	}
	held := func(n *Network) (k int) {
		for _, l := range n.Layers {
			if d, ok := l.(*Dense); ok && d.gW != nil {
				k++
			}
		}
		return k
	}
	cases := append(netCases(), netCase{"mlp-wide", func() *Network { return NewMLP(5, 12, 20, 9) }, SyntheticBlobs(6, 40, 12, 9)})
	for _, tc := range cases {
		x, labels := tc.ds.Batch(3, 4)
		y, ylabels := tc.ds.Batch(7, 8)
		fwd := tc.net()
		fwd.Forward(x)
		if k := held(fwd); k != 0 {
			t.Fatalf("%s: a network that only ran Forward holds %d weight gradients", tc.name, k)
		}
		got, want := tc.net(), tc.net()
		eager(want)
		got.Loss(x, labels) // fresh: no ZeroGrads first
		want.Loss(x, labels)
		got.ZeroGrads()
		eager(want)
		got.Loss(y, ylabels)
		want.Loss(y, ylabels)
		if k := held(got); k != 0 {
			t.Fatalf("%s: one-row tokens left %d weight gradients allocated", tc.name, k)
		}
		wantAllBits(t, tc.name+" grads", got.Grads(), want.Grads())
		if k, dense := held(got), held(want); k != dense {
			t.Fatalf("%s: Grads formed %d of %d weight gradients", tc.name, k, dense)
		}
		batch := tc.net()
		bx, blabels := tc.ds.Batch(0, 16)
		batch.Loss(bx, blabels)
		if k := held(batch); k != held(want) {
			t.Fatalf("%s: a 16-row pass formed %d weight gradients, want %d", tc.name, k, held(want))
		}
	}
}

package minidnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fela/internal/tensor"
)

func TestConvGeometryKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 1, 1, 3, 1, 4, 4)
	if c.OutH() != 4 || c.OutW() != 4 {
		t.Fatalf("padded 3x3 conv changed spatial size: %dx%d", c.OutH(), c.OutW())
	}
	c2 := NewConv2D(rng, 2, 3, 3, 0, 5, 5)
	if c2.OutH() != 3 || c2.OutW() != 3 {
		t.Fatalf("unpadded conv out = %dx%d, want 3x3", c2.OutH(), c2.OutW())
	}
}

// TestConvIdentityKernel: a centered one-hot kernel with zero bias must
// reproduce its input.
func TestConvIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, 1, 1, 3, 1, 4, 4)
	c.W.Zero()
	c.W.Data[4] = 1 // center of the 3x3 kernel
	c.B.Zero()
	x := tensor.New(2, 16).Randn(rng, 1)
	out := c.Forward(x)
	if out.MaxAbsDiff(x) > 1e-6 {
		t.Fatalf("identity kernel diff = %v", out.MaxAbsDiff(x))
	}
}

// TestConvGradientNumeric validates conv weight, bias and input
// gradients against finite differences through a full loss.
func TestConvGradientNumeric(t *testing.T) {
	net := NewCNN(3, 1, 6, 6, 2, 8, 3)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(3, 36).Randn(rng, 1)
	labels := []int{0, 1, 2}

	net.ZeroGrads()
	net.Loss(x, labels)
	grads := net.CloneGrads()
	params := net.Params()

	// ReLU/max-pool kinks make finite differences locally inexact, so
	// use a small step and a tolerance wide enough for subgradient
	// disagreement at kinks but narrow enough to catch sign or scale
	// bugs.
	const eps = 2e-3
	for pi, p := range params {
		for _, idx := range []int{0, p.Len() / 3, p.Len() - 1} {
			orig := p.Data[idx]
			p.Data[idx] = orig + eps
			net2 := cloneForLoss(net)
			lossP := net2.Loss(x, labels)
			p.Data[idx] = orig - eps
			net3 := cloneForLoss(net)
			lossM := net3.Loss(x, labels)
			p.Data[idx] = orig
			numeric := (lossP - lossM) / (2 * eps)
			analytic := float64(grads[pi].Data[idx])
			if math.Abs(numeric-analytic) > 5e-2*(1+math.Abs(numeric)) {
				t.Errorf("param %d idx %d: analytic %v numeric %v", pi, idx, analytic, numeric)
			}
		}
	}
}

// cloneForLoss builds a throwaway view sharing parameter storage but not
// gradient accumulators, so finite-difference probes do not pollute the
// recorded gradients.
func cloneForLoss(n *Network) *Network {
	// Conv/Dense layers share W/B tensors; fresh grad tensors.
	out := &Network{}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			c := *v
			c.gW = tensor.New(v.gW.Shape...)
			c.gB = tensor.New(v.gB.Shape...)
			out.Layers = append(out.Layers, &c)
		case *Dense:
			d := *v
			d.gW = tensor.New(v.gW.Shape...)
			d.gB = tensor.New(v.gB.Shape...)
			out.Layers = append(out.Layers, &d)
		case *ReLU:
			out.Layers = append(out.Layers, &ReLU{})
		case *MaxPool2D:
			p := *v
			out.Layers = append(out.Layers, &p)
		default:
			panic("unknown layer in clone")
		}
	}
	return out
}

// TestConvParallelBitIdentical proves the im2col band-parallel
// Forward/Backward reproduce the direct naive loops bit for bit at every
// fan-out width. The geometry is chosen large enough to clear the
// tensor package's parallel cutoff, so the parallel path genuinely
// runs; odd spatial dims make the bands land unevenly.
func TestConvParallelBitIdentical(t *testing.T) {
	const (
		batch, inC, outC = 24, 3, 8
		k, pad, h, w     = 3, 1, 15, 17
	)
	newLayer := func() *Conv2D {
		return NewConv2D(rand.New(rand.NewSource(9)), inC, outC, k, pad, h, w)
	}
	rng := rand.New(rand.NewSource(10))
	x := tensor.New(batch, inC*h*w).Randn(rng, 1)
	ref := newLayer()
	wantOut := ref.forwardNaive(x)
	grad := tensor.New(wantOut.Shape...).Randn(rng, 1)
	for i := range grad.Data {
		if i%9 == 0 {
			grad.Data[i] = 0 // exercise the zero-skip path
		}
	}
	wantDx := ref.backwardNaive(grad)
	t.Cleanup(func() { tensor.SetParallelism(0) })
	eachPath(func(path string) {
		for _, par := range []int{1, 2, 8} {
			tensor.SetParallelism(par)
			name := fmt.Sprintf("%s/par%d", path, par)
			c := newLayer()
			wantBits(t, name+" Forward", c.Forward(x), wantOut)
			wantBits(t, name+" Backward dx", c.Backward(grad), wantDx)
			wantBits(t, name+" gW", c.gW, ref.gW)
			wantBits(t, name+" gB", c.gB, ref.gB)
		}
	})
}

// TestMaxPool: on a 4×20 plane that grows left to right and top to
// bottom, each window's maximum is its bottom-right tap, and Backward
// routes each gradient there and nowhere else — ten windows a row, eight
// of them on the AVX2 tile and two on the Go loop, on each kernel path.
func TestMaxPool(t *testing.T) {
	const h, w = 4, 20
	eachPath(func(path string) {
		p := NewMaxPool2D(1, h, w, 2)
		x := tensor.New(1, h*w)
		for i := range x.Data {
			x.Data[i] = float32(i + 1)
		}
		out := p.Forward(x)
		grad := tensor.New(1, h/2*w/2)
		for o := range out.Data {
			i, j := o/(w/2), o%(w/2)
			at := (2*i+1)*w + 2*j + 1
			if out.Data[o] != float32(at+1) || p.argmax[o] != int32(at) {
				t.Fatalf("%s: window %d is %v at %d, want %v at %d", path, o, out.Data[o], p.argmax[o], at+1, at)
			}
			grad.Data[o] = float32(o + 1)
		}
		dx := p.Backward(grad)
		var sum float32
		for in, v := range dx.Data {
			i, j := in/w, in%w
			want := float32(0)
			if i%2 == 1 && j%2 == 1 {
				want = float32(i/2*(w/2) + j/2 + 1)
			}
			if v != want {
				t.Fatalf("%s: dx[%d] = %v, want %v", path, in, v, want)
			}
			sum += v
		}
		if want := float32(len(grad.Data) * (len(grad.Data) + 1) / 2); sum != want {
			t.Fatalf("%s: pool backward not conservative: %v, want %v", path, sum, want)
		}
	})
}

func TestMaxPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-divisible pooling")
		}
	}()
	NewMaxPool2D(1, 5, 5, 2)
}

// TestCNNTrainingConverges: the real CNN learns synthetic images.
func TestCNNTrainingConverges(t *testing.T) {
	ds := SyntheticImages(8, 90, 1, 6, 6, 3)
	net := NewCNN(5, 1, 6, 6, 4, 16, 3)
	first := net.Loss(ds.X, ds.Labels)
	net.SGDStep(0.05)
	for epoch := 0; epoch < 40; epoch++ {
		net.Loss(ds.X, ds.Labels)
		net.SGDStep(0.05)
	}
	final := net.Loss(ds.X, ds.Labels)
	net.ZeroGrads()
	if final >= first/2 {
		t.Fatalf("CNN loss did not halve: %v -> %v", first, final)
	}
	if acc := net.Accuracy(ds.X, ds.Labels); acc < 0.8 {
		t.Fatalf("CNN accuracy = %.2f", acc)
	}
}

func TestConvBadGeometryPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewConv2D(rng, 0, 1, 3, 1, 4, 4)
}

func TestSyntheticImagesDeterministic(t *testing.T) {
	a := SyntheticImages(1, 30, 1, 4, 4, 3)
	b := SyntheticImages(1, 30, 1, 4, 4, 3)
	if !a.X.Equal(b.X) {
		t.Fatal("dataset not deterministic")
	}
	if a.Labels[4] != 1 {
		t.Fatalf("labels = %v", a.Labels[:6])
	}
}

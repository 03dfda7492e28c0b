package minidnn

import (
	"math/rand"
	"testing"

	"fela/internal/tensor"
)

// The owner benchmarks of the "forward/backward kernels" slice of a
// token's life, at the shapes of the regression benchmark's workloads
// (bench/spec.go): train-compute's CNN on a 16-sample token and
// train-comm's 1M-parameter MLP on a batch-1 token.

func benchToken(b *testing.B, net *Network, ds *Dataset, batch int) {
	x, labels := ds.Batch(0, batch)
	net.ZeroGrads()
	net.Loss(x, labels) // grow the layer buffers before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.Loss(x, labels)
	}
}

func BenchmarkTokenCNN(b *testing.B) {
	benchToken(b, NewCNN(1, 3, 32, 32, 16, 64, 10), SyntheticImages(2, 16, 3, 32, 32, 10), 16)
}

func BenchmarkTokenMLP(b *testing.B) {
	benchToken(b, NewMLP(1, 1024, 1024, 16), SyntheticBlobs(2, 16, 1024, 16), 1)
}

// benchConv is train-compute's first layer with a token's input and an
// output gradient of ReLU-like sparsity (the zero-skip paths run).
func benchConv() (c *Conv2D, x, grad *tensor.Tensor) {
	rng := rand.New(rand.NewSource(3))
	c = NewConv2D(rng, 3, 16, 3, 1, 32, 32)
	x = tensor.New(16, 3*32*32).Randn(rng, 1)
	grad = tensor.New(16, 16*32*32).Randn(rng, 1)
	for i := range grad.Data {
		if rng.Intn(2) == 0 {
			grad.Data[i] = 0
		}
	}
	return c, x, grad
}

func BenchmarkConvForward(b *testing.B) {
	c, x, _ := benchConv()
	c.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x)
	}
}

// BenchmarkConvBackward is the full Backward, input gradient included:
// the cost Network.Loss avoids when the conv is layer 0.
func BenchmarkConvBackward(b *testing.B) {
	c, x, grad := benchConv()
	c.Forward(x)
	c.Backward(grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Backward(grad)
	}
}

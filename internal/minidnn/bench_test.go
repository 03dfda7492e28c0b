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
// the cost Network.Loss avoids when the conv is layer 0. Its gradient
// is half zeros, not the sparser one a max-pool routes (see
// BenchmarkConvBackwardParams).
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

// benchPool is train-compute's conv → ReLU → max-pool front on a token,
// run forward once, and a dense gradient for the pool's output.
func benchPool() (c *Conv2D, relu *ReLU, pool *MaxPool2D, up *tensor.Tensor) {
	c, x, _ := benchConv()
	relu = &ReLU{}
	pool = NewMaxPool2D(16, 32, 32, 2)
	pool.Forward(relu.Forward(c.Forward(x)))
	up = tensor.New(16, 16*16*16).Randn(rand.New(rand.NewSource(4)), 1)
	return c, relu, pool, up
}

// BenchmarkConvBackwardParams is the layer-0 pass Network.Loss takes,
// gW and gB alone, on the gradient the CNN's first layer really gets: a
// 2×2 max-pool routes one gradient in four, and the ReLU then masks
// the windows whose maximum was not positive.
func BenchmarkConvBackwardParams(b *testing.B) {
	c, relu, pool, up := benchPool()
	grad := relu.Backward(pool.Backward(up))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ZeroGrads()
		c.backwardParams(grad)
	}
}

func BenchmarkMaxPoolForward(b *testing.B) {
	_, relu, pool, _ := benchPool()
	act := relu.out
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Forward(act)
	}
}

func BenchmarkMaxPoolBackward(b *testing.B) {
	_, _, pool, up := benchPool()
	pool.Backward(up) // grow dx before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Backward(up)
	}
}

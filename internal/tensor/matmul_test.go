package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// randTensor fills a tensor with values drawn from rng, with a sprinkle
// of exact zeros so the kernels' zero-skip paths are exercised.
func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		if rng.Intn(8) == 0 {
			continue // exact zero
		}
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// TestBlockedMatMulBitIdentical compares every blocked kernel against
// its naive reference across shapes chosen to hit partial tiles, single
// tiles and multi-tile paths, on each kernel path. Equality is bitwise
// (wantBits), not approximate: blocking may only reorder traversal,
// never arithmetic, or the engine's bit-identical-to-Sequential
// guarantee breaks.
func TestBlockedMatMulBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},
		{matmulBlock, matmulBlock, matmulBlock},
		{matmulBlock + 1, matmulBlock + 1, matmulBlock + 1},
		{17, 2*matmulBlock + 9, 31},
		{5, 200, 150},
		{130, 70, 129},
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			a := randTensor(rng, s.m, s.k)
			b := randTensor(rng, s.k, s.n)
			at := randTensor(rng, s.k, s.m)
			bt := randTensor(rng, s.n, s.k)
			eachPath(func(path string) {
				wantBits(t, path+" MatMul", MatMul(a, b), matMulNaive(a, b))
				wantBits(t, path+" MatMulAT", MatMulAT(at, b), matMulATNaive(at, b))
				wantBits(t, path+" MatMulBT", MatMulBT(a, bt), matMulBTNaive(a, bt))
			})
		})
	}
}

// benchDim is large enough that the working set (three ~1 MiB
// matrices) spills L2, where tiling pays.
const benchDim = 512

func benchPair(rows, cols int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(11))
	return randTensor(rng, rows, cols), randTensor(rng, cols, rows)
}

func BenchmarkMatMulBlocked(b *testing.B) {
	x, y := benchPair(benchDim, benchDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulNaive(b *testing.B) {
	x, y := benchPair(benchDim, benchDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matMulNaive(x, y)
	}
}

func BenchmarkMatMulATBlocked(b *testing.B) {
	x, y := benchPair(benchDim, benchDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulAT(x, y)
	}
}

func BenchmarkMatMulATNaive(b *testing.B) {
	x, y := benchPair(benchDim, benchDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matMulATNaive(x, y)
	}
}

func BenchmarkMatMulBTBlocked(b *testing.B) {
	x, y := benchPair(benchDim, benchDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulBT(x, y)
	}
}

func BenchmarkMatMulBTNaive(b *testing.B) {
	x, y := benchPair(benchDim, benchDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matMulBTNaive(x, y)
	}
}

// BenchmarkMatMulSmall is the sub-cutoff matmul of the scheduling
// workloads (the regression benchmark's tensor.small_matmul_us): at
// 1024 multiply-accumulates, per-call overhead is what it measures.
func BenchmarkMatMulSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := New(2, 16).Randn(rng, 1), New(16, 32).Randn(rng, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

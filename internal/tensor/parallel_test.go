package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// forceParallel lowers the flops cutoff so even tiny odd-shaped kernels
// take the parallel path, and restores it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parFlopsCutoff
	parFlopsCutoff = 1
	t.Cleanup(func() { parFlopsCutoff = old })
}

// TestParallelMatMulBitIdentical proves the parallel layer preserves the
// bit-reproducibility guarantee: every public kernel must match its
// naive reference bitwise at every fan-out width, across shapes chosen
// so bands land unevenly (odd dims, dims smaller than the width, single
// rows). The cutoff is forced to 1 so all of them actually fan out.
func TestParallelMatMulBitIdentical(t *testing.T) {
	forceParallel(t)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},
		{matmulBlock, matmulBlock, matmulBlock},
		{matmulBlock + 1, matmulBlock + 1, matmulBlock + 1},
		{17, 2*matmulBlock + 9, 31},
		{5, 200, 150},
		{130, 70, 129},
		{257, 33, 101},
	}
	rng := rand.New(rand.NewSource(23))
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		for _, s := range shapes {
			t.Run(fmt.Sprintf("par%d/%dx%dx%d", par, s.m, s.k, s.n), func(t *testing.T) {
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
	SetParallelism(0)
}

// TestParallelMatMulAcrossGOMAXPROCS runs the default width (0 = track
// GOMAXPROCS) under different GOMAXPROCS settings, since that is the
// path production takes.
func TestParallelMatMulAcrossGOMAXPROCS(t *testing.T) {
	forceParallel(t)
	SetParallelism(0)
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(31))
	a := randTensor(rng, 129, 65)
	b := randTensor(rng, 65, 127)
	want := matMulNaive(a, b)
	eachPath(func(path string) {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			wantBits(t, fmt.Sprintf("%s/GOMAXPROCS=%d MatMul", path, procs), MatMul(a, b), want)
		}
	})
}

// TestParallelRowsCoverage checks the band claiming covers every row
// exactly once, whatever the width.
func TestParallelRowsCoverage(t *testing.T) {
	forceParallel(t)
	for _, par := range []int{1, 2, 3, 8, 100} {
		SetParallelism(par)
		for _, rows := range []int{1, 2, 7, 64, 129} {
			var mu sync.Mutex
			seen := make([]int, rows)
			ParallelRows(rows, 1<<30, func(lo, hi int) {
				mu.Lock()
				for r := lo; r < hi; r++ {
					seen[r]++
				}
				mu.Unlock()
			})
			for r, n := range seen {
				if n != 1 {
					t.Fatalf("par=%d rows=%d: row %d visited %d times", par, rows, r, n)
				}
			}
		}
	}
	SetParallelism(0)
}

// TestParallelRowsSerialBelowCutoff checks small kernels stay on the
// caller's goroutine and are counted as serial calls.
func TestParallelRowsSerialBelowCutoff(t *testing.T) {
	SetParallelism(8)
	t.Cleanup(func() { SetParallelism(0) })
	before := ReadKernelStats()
	ParallelRows(64, parFlopsCutoff-1, func(lo, hi int) {
		if lo != 0 || hi != 64 {
			t.Errorf("serial path got band [%d,%d), want [0,64)", lo, hi)
		}
	})
	after := ReadKernelStats()
	if after.SerialCalls != before.SerialCalls+1 {
		t.Errorf("SerialCalls %d -> %d, want +1", before.SerialCalls, after.SerialCalls)
	}
	if after.ParallelCalls != before.ParallelCalls {
		t.Errorf("ParallelCalls moved on a serial call")
	}
}

// TestKernelStatsParallel checks a fanned-out call records busy and wall
// time.
func TestKernelStatsParallel(t *testing.T) {
	forceParallel(t)
	SetParallelism(4)
	t.Cleanup(func() { SetParallelism(0) })
	before := ReadKernelStats()
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 200, 40)
	b := randTensor(rng, 40, 50)
	MatMul(a, b)
	after := ReadKernelStats()
	if after.ParallelCalls != before.ParallelCalls+1 {
		t.Fatalf("ParallelCalls %d -> %d, want +1", before.ParallelCalls, after.ParallelCalls)
	}
	if after.BusyNanos <= before.BusyNanos {
		t.Errorf("BusyNanos did not advance")
	}
	if after.WallNanos <= before.WallNanos {
		t.Errorf("WallNanos did not advance")
	}
}

func TestSetParallelism(t *testing.T) {
	t.Cleanup(func() { SetParallelism(0) })
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Errorf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(-5)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism() after negative = %d, want GOMAXPROCS", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism() = %d, want GOMAXPROCS", got)
	}
}

// parShapes are the largest matmul of a token on the regression
// benchmark's workloads — train-compute's dense layer, train-comm's and
// train-topk's first layer on a batch-1 token, train-sched's hidden
// layer — and a square one that spills L2. BenchmarkMatMulParallel and
// BenchmarkMatMulSerial time them at the default fan-out and at 1: the
// ratio is what parFlopsCutoff is set from.
var parShapes = []struct {
	name    string
	m, k, n int
}{
	{"compute-16x4096x64", 16, 4096, 64},
	{"comm-1x1024x1024", 1, 1024, 1024},
	{"sched-2x16x32", 2, 16, 32},
	{"square-512", benchDim, benchDim, benchDim},
}

func benchMatMulAt(b *testing.B, par int) {
	SetParallelism(par)
	defer SetParallelism(0)
	for _, s := range parShapes {
		rng := rand.New(rand.NewSource(11))
		x, y := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.n)
		c := New(s.m, s.n)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(c, x, y)
			}
		})
	}
}

func BenchmarkMatMulParallel(b *testing.B) { benchMatMulAt(b, 0) }

func BenchmarkMatMulSerial(b *testing.B) { benchMatMulAt(b, 1) }

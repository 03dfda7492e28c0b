// Package tensor provides the small float32 tensor math used by the
// real-execution training engine (internal/minidnn, internal/rt). It is
// deliberately minimal — dense row-major tensors with the handful of
// kernels a classifier needs — and fully deterministic so that
// distributed runs can be compared bitwise against sequential ones.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	// Shape holds the dimension sizes, outermost first.
	Shape []int
	// Data is the row-major backing array, len = product(Shape).
	Data []float32
}

// New returns a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is not
// copied; it must have exactly the right length.
func FromSlice(data []float32, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Len() {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), shape))
	}
	return t
}

// Len returns the element count.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// At returns the element at the given indices (2-D convenience).
func (t *Tensor) At(i, j int) float32 {
	if len(t.Shape) != 2 {
		panic("tensor: At requires a 2-D tensor")
	}
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns the element at the given indices (2-D convenience).
func (t *Tensor) Set(i, j int, v float32) {
	if len(t.Shape) != 2 {
		panic("tensor: Set requires a 2-D tensor")
	}
	t.Data[i*t.Shape[1]+j] = v
}

// Randn fills the tensor with N(0, std²) values from the given rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// AddScaled adds a*x element-wise into t (t += a*x): the row tile
// with a one-entry list, so each element is the naive loop's
// d[i] += a*x[i] — eight lanes per instruction on AVX2 — and every
// caller (the fold, the optimizer step, Sequential) gets the same bits
// at memory speed.
func (t *Tensor) AddScaled(x *Tensor, a float32) {
	if t.Len() != x.Len() {
		panic("tensor: AddScaled size mismatch")
	}
	axpyList(t.Data[:len(x.Data)], x.Data, []float32{a}, []int{0})
}

// Add adds x element-wise into t.
func (t *Tensor) Add(x *Tensor) { t.AddScaled(x, 1) }

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// Equal reports exact element-wise equality (bitwise reproducibility
// checks).
func (t *Tensor) Equal(x *Tensor) bool {
	if t.Len() != x.Len() {
		return false
	}
	for i := range t.Data {
		if t.Data[i] != x.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func (t *Tensor) MaxAbsDiff(x *Tensor) float64 {
	if t.Len() != x.Len() {
		panic("tensor: size mismatch")
	}
	var m float64
	for i := range t.Data {
		d := math.Abs(float64(t.Data[i] - x.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// Reuse returns a tensor of the given shape whose every element the
// caller is about to overwrite: t itself, reshaped in place, when its
// backing array is large enough, and a fresh tensor when t is nil or too
// small. The contents are unspecified, and reshaping invalidates what t
// held before — this is the grow-only buffer the …Into kernels and the
// minidnn layers fill on every call instead of allocating.
func Reuse(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t == nil || cap(t.Data) < n || n <= 0 {
		return New(shape...) // New rejects non-positive dimensions
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = t.Data[:n]
	return t
}

// matmulBlock is the cache-tile edge for the blocked matmul kernels: a
// 64×64 float32 tile is 16 KiB, two of which sit comfortably in a
// typical 32 KiB L1d.
const matmulBlock = 64

// The kernels below reorder only the *traversal*, never the per-element
// arithmetic: every output element is still one running value that
// takes its products one add at a time in ascending p order, so results
// are bitwise identical to the naive kernels (the repo-wide
// bit-reproducibility guarantee). The naive kernels are kept as
// unexported references that the correctness tests compare against.
// Four rules keep that true (DESIGN.md §15.1):
//
//   - disjoint output elements per goroutine: each public kernel
//     dispatches through ParallelRows (parallel.go), which splits the
//     rows of C — of Cᵀ for MatMulBT's lanes-across-rows form — into
//     bands claimed by pool workers; banding never moves an output
//     element between workers;
//   - unchanged addition order inside a register tile: Dot4 runs four
//     dot products side by side, and the row tile (AccumRows, AddRows)
//     carries one output element per lane through four products before
//     storing it — eight lanes per instruction on AVX2 — but each
//     element's own chain of adds is the naive one (kernels.go);
//   - zero-skip preserved: a product the naive kernel skips because its
//     multiplier is zero is never added (x + 0·y is not x for y = ±Inf or
//     NaN, nor for x = -0), and one it adds is never skipped;
//   - no fused multiply-add: every product is rounded to float32 before
//     its add, in the Go loops (an explicit float32(a*b)) and in the
//     assembly (VMULPS, then VADDPS), so the AVX2 and portable paths
//     agree at any GOAMD64.
//
// Each matmul has an …Into form that fills a Reuse'd caller buffer
// without reading it, and MatMulAT an accumulating one too
// (MatMulATAdd); the plain forms are the …Into kernels on a fresh
// tensor.

// MatMul computes C = A·B for A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b) }

// MatMulInto computes C = A·B into dst (see Reuse) and returns it.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := Reuse(dst, m, n)
	flops := int64(m) * int64(k) * int64(n)
	ParallelRows(m, flops, func(lo, hi int) { matMulRows(a, b, c, lo, hi) })
	return c
}

// matMulRows computes rows [lo, hi) of C = A·B with the p-blocked
// traversal: a band of matmulBlock rows of B stays cache-resident while
// the band's rows of A sweep it, so B is pulled from memory once
// instead of once per row of A. p ascends across and within blocks, so
// each (i,j) sees the naive addition order.
func matMulRows(a, b, c *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	clear(c.Data[lo*n : hi*n])
	for pb := 0; pb < k; pb += matmulBlock {
		pe := min(pb+matmulBlock, k)
		bblock := b.Data[pb*n : pe*n]
		for i := lo; i < hi; i++ {
			AccumRows(c.Data[i*n:(i+1)*n], a.Data[i*k+pb:i*k+pe], 1, bblock)
		}
	}
}

func matMulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += float32(av * brow[j])
			}
		}
	}
	return c
}

// MatMulAT computes C = Aᵀ·B for A (k×m) and B (k×n).
func MatMulAT(a, b *Tensor) *Tensor { return MatMulATInto(nil, a, b) }

// MatMulATInto computes C = Aᵀ·B into dst (see Reuse) and returns it,
// for A (k×m) and B (k×n). It never reads what dst held: each element
// is summed from +0 in ascending p and stored, which is the bits
// MatMulATAdd gives on a zeroed dst — a sum that starts at +0 is never
// -0, the one value +0 + x does not preserve.
func MatMulATInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulAT shapes %v x %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := Reuse(dst, m, n)
	flops := int64(k) * int64(m) * int64(n)
	ParallelRows(m, flops, func(lo, hi int) { matMulATRows(a, b, c, lo, hi, false) })
	return c
}

// MatMulATAdd adds Aᵀ·B to dst (m×n), for A (k×m) and B (k×n). Each
// product element is first summed on its own, from zero and in
// ascending p, and then added to dst once — dst + (Σ_p …), the value a
// caller adding MatMulAT's result to dst would get, not the differently
// rounded ((dst + …) + …). This is the weight-gradient accumulation of
// a dense layer, done without a product-sized buffer.
func MatMulATAdd(dst, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 || a.Shape[0] != b.Shape[0] ||
		dst.Shape[0] != a.Shape[1] || dst.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulAT shapes %v x %v into %v", a.Shape, b.Shape, dst.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	flops := int64(k) * int64(m) * int64(n)
	ParallelRows(m, flops, func(lo, hi int) { matMulATRows(a, b, dst, lo, hi, true) })
}

// matMulATRows computes rows [lo, hi) of Aᵀ·B tile by tile: the
// products of a few rows are summed from +0 while blocks of matmulBlock
// rows of B sweep them — instead of the naive kernel's full re-walk of
// C per p. Row i's multipliers are column i of A (stride m); p ascends
// across and within blocks, so each (i,j) still accumulates in ascending
// p order. The store form (add false) sums in c's own rows. The adding
// form sums in an on-stack scratch tile and then adds the finished tile
// to c through the row tile with multiplier 1 — 1·v is v for every
// value a tile holds, since a sum is never a signalling NaN. The tile is
// 4 KiB: zeroing more than that on entry shows in a sub-cutoff matmul's
// time, and a row wider than the tile (no model here has one) falls
// back to a heap row.
func matMulATRows(a, b, c *Tensor, lo, hi int, add bool) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	var buf [1024]float32
	tile := buf[:]
	if add && n > len(tile) {
		tile = make([]float32, n)
	}
	rows := max(1, len(buf)/n)
	for ib := lo; ib < hi; ib += rows {
		ie := min(ib+rows, hi)
		crows := c.Data[ib*n : ie*n]
		prod := crows
		if add {
			prod = tile[:len(crows)]
		}
		clear(prod)
		for pb := 0; pb < k; pb += matmulBlock {
			pe := min(pb+matmulBlock, k)
			bblock := b.Data[pb*n : pe*n]
			for i := range ie - ib {
				AccumRows(prod[i*n:(i+1)*n], a.Data[pb*m+ib+i:], m, bblock)
			}
		}
		if add {
			axpyList(crows, prod, []float32{1}, []int{0})
		}
	}
}

func matMulATNaive(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += float32(av * brow[j])
			}
		}
	}
	return c
}

// MatMulBT computes C = A·Bᵀ for A (m×k) and B (n×k).
func MatMulBT(a, b *Tensor) *Tensor { return MatMulBTInto(nil, a, b) }

// MatMulBTInto computes C = A·Bᵀ into dst (see Reuse) and returns it.
func MatMulBTInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulBT shapes %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := Reuse(dst, m, n)
	flops := int64(m) * int64(k) * int64(n)
	if m < btLanesMin {
		ParallelRows(m, flops, func(lo, hi int) { matMulBTRows(a, b, c, lo, hi) })
		return c
	}
	sp := scratch.Get().(*[]float32)
	*sp = grow(*sp, k*m)
	at := *sp
	for i := 0; i < m; i++ {
		for p, v := range a.Data[i*k : (i+1)*k] {
			at[p*m+i] = v
		}
	}
	ParallelRows(n, flops, func(lo, hi int) { matMulBTCols(at, b, c, lo, hi) })
	scratch.Put(sp)
	return c
}

// btLanesMin is the row count from which MatMulBT takes its lanes
// across the rows of C: one full vector of the row tile. Below it — the
// batch-1 and batch-2 tokens of the MLP workloads — the rows are too
// few, and Dot4 runs along them instead.
const btLanesMin = vecLen

// scratch pools the transposed operands of MatMulBT: grow-only buffers
// that a call borrows for its duration, so the steady state allocates
// nothing.
var scratch = sync.Pool{New: func() any { return new([]float32) }}

// grow returns s resized to n elements of unspecified content, reusing
// its backing array when that is large enough.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// matMulBTCols computes columns [lo, hi) of C = A·Bᵀ from at = Aᵀ
// (k×m). Column j of C is a row of Cᵀ, Cᵀ[j] = Σ_p B[j][p] · Aᵀ[p]: a
// row accumulation (AddRows) whose lanes are the rows of C. Every
// product is added, from a +0 start and in ascending p — the naive dot
// product's sequence — into an on-stack tile of Cᵀ rows that is then
// written out as columns of C. Bands over j write disjoint elements of
// C. A C taller than the tile is done a tile-high strip at a time.
func matMulBTCols(at []float32, b, c *Tensor, lo, hi int) {
	m, n, k := c.Shape[0], c.Shape[1], b.Shape[1]
	var buf [1024]float32
	for i0 := 0; i0 < m; i0 += len(buf) {
		h := min(len(buf), m-i0)
		per := len(buf) / h // Cᵀ rows per tile
		for jb := lo; jb < hi; jb += per {
			je := min(jb+per, hi)
			tile := buf[:(je-jb)*h]
			clear(tile)
			for j := jb; j < je; j++ {
				AddRows(tile[(j-jb)*h:][:h], b.Data[j*k:(j+1)*k], at[i0:], m)
			}
			transposeTo(c.Data[i0*n+jb:], n, tile, je-jb, h)
		}
	}
}

// matMulBTRows computes rows [lo, hi) of C = A·Bᵀ with the j-blocked
// traversal: a band of matmulBlock rows of B stays cache-resident while
// the band's rows of A dot against it, so B is pulled from memory once
// per band of A rows instead of once per row. Inside a band four output
// columns share each pass over the row of A (Dot4), with a scalar tail;
// every dot product is still one left-to-right pass over p from a zero
// sum — the naive addition sequence exactly.
func matMulBTRows(a, b, c *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[0]
	for jb := 0; jb < n; jb += matmulBlock {
		je := min(jb+matmulBlock, n)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			j := jb
			for ; j+4 <= je; j += 4 {
				crow[j], crow[j+1], crow[j+2], crow[j+3] = Dot4(arow, b.Data[j*k:], k, 0, 0, 0, 0)
			}
			for ; j < je; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var sum float32
				for p, av := range arow {
					sum += float32(av * brow[p])
				}
				crow[j] = sum
			}
		}
	}
}

func matMulBTNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var sum float32
			for p := 0; p < k; p++ {
				sum += float32(arow[p] * brow[p])
			}
			crow[j] = sum
		}
	}
	return c
}

// ReLU applies max(0, x) element-wise, returning a new tensor.
func ReLU(x *Tensor) *Tensor { return ReLUInto(nil, x) }

// ReLUGrad masks the upstream gradient by the forward input's sign.
func ReLUGrad(x, grad *Tensor) *Tensor { return ReLUGradInto(nil, x, grad) }

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (batch×classes) against integer labels, and the gradient with respect
// to the logits (already divided by the batch size).
func SoftmaxCrossEntropy(logits *Tensor, labels []int) (loss float64, grad *Tensor) {
	if logits.Dims() != 2 || logits.Shape[0] != len(labels) {
		panic("tensor: SoftmaxCrossEntropy shape mismatch")
	}
	batch, classes := logits.Shape[0], logits.Shape[1]
	grad = New(batch, classes)
	exps := make([]float64, classes)
	for i := 0; i < batch; i++ {
		row := logits.Data[i*classes : (i+1)*classes]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			exps[j] = math.Exp(float64(v - max))
			sum += exps[j]
		}
		label := labels[i]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("tensor: label %d out of range", label))
		}
		loss += -math.Log(exps[label] / sum)
		for j := 0; j < classes; j++ {
			p := float32(exps[j] / sum)
			if j == label {
				p -= 1
			}
			grad.Data[i*classes+j] = p / float32(batch)
		}
	}
	return loss / float64(batch), grad
}

// Argmax returns the index of the row maximum for each row of a 2-D
// tensor.
func Argmax(t *Tensor) []int {
	if t.Dims() != 2 {
		panic("tensor: Argmax requires 2-D")
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := make([]int, rows)
	for i := 0; i < rows; i++ {
		best := 0
		for j := 1; j < cols; j++ {
			if t.Data[i*cols+j] > t.Data[i*cols+best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// Rows returns a copy of rows [lo, hi) of a 2-D tensor.
func (t *Tensor) Rows(lo, hi int) *Tensor {
	if t.Dims() != 2 || lo < 0 || hi > t.Shape[0] || lo >= hi {
		panic(fmt.Sprintf("tensor: Rows[%d:%d] of %v", lo, hi, t.Shape))
	}
	cols := t.Shape[1]
	out := New(hi-lo, cols)
	copy(out.Data, t.Data[lo*cols:hi*cols])
	return out
}

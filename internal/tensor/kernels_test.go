package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// wantBits fails unless got and want hold the same bit patterns.
// Tensor.Equal compares with !=, which calls -0 and +0 equal and can
// never pass on a NaN; the kernels promise more than that — the same
// operands added in the same order give the same bits: signed zeros,
// denormals and infinities exactly, and a NaN exactly where the
// reference has a NaN. Which NaN is the one thing left open: when an
// add or a multiply meets two NaNs (say an operand's own and the
// default NaN of a 0·Inf), x86 returns the one in the instruction's
// destination register, and which operand of a commutative operation
// the compiler puts there is not something Go source decides. Nothing
// downstream tells NaNs apart.
func wantBits(t *testing.T, what string, got, want *Tensor) {
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

var (
	negZero = math.Float32frombits(0x80000000)
	denorm  = math.Float32frombits(1) // smallest positive denormal
	inf     = float32(math.Inf(1))
	nan     = float32(math.NaN())
	// finiteSpecials keep a result finite, so they test signed zeros and
	// gradual underflow on every output element; nonFinite ones spread.
	finiteSpecials = []float32{0, negZero, denorm, -denorm, math.Float32frombits(0x007fffff)}
	nonFinite      = []float32{inf, -inf, nan}
)

// specialTensor is randTensor (normal values, an eighth exact zeros)
// with about a sixth of the entries overwritten by finite special
// values, plus `wild` non-finite ones at random places.
func specialTensor(rng *rand.Rand, wild int, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		switch r := rng.Intn(24); {
		case r < 3:
			// exact zero
		case r < 7:
			t.Data[i] = finiteSpecials[rng.Intn(len(finiteSpecials))]
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	for ; wild > 0; wild-- {
		t.Data[rng.Intn(len(t.Data))] = nonFinite[rng.Intn(len(nonFinite))]
	}
	return t
}

// stale returns a buffer larger than any result of the matrix below,
// full of NaNs: an …Into kernel that forgets to zero or overwrite an
// element of a reused buffer shows as a NaN where the reference has a
// number.
func stale() *Tensor {
	t := New(3, 700)
	for i := range t.Data {
		t.Data[i] = nan
	}
	return t
}

// tileSizes are the widths around the 4-wide register tile and the
// 4-multiplier group: below it, at it, one over, and two tiles plus a
// tail.
var tileSizes = []int{1, 3, 4, 5, 11}

// TestKernelBitPatterns runs every matmul kernel against its naive
// reference, comparing bit patterns, over tile tails in every dimension,
// k spanning several AccumRows chunks and matmul blocks, operands salted with ±0,
// denormals, ±Inf and NaN, at fan-out 1, 2 and 8 — through the …Into
// forms, into stale oversized buffers, and through MatMulATAdd onto a
// non-zero destination.
func TestKernelBitPatterns(t *testing.T) {
	forceParallel(t)
	t.Cleanup(func() { SetParallelism(0) })
	rng := rand.New(rand.NewSource(41))
	ks := append([]int{matmulBlock + 2, 2*matmulBlock + 7}, tileSizes...)
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		for _, wild := range []int{0, 2} {
			for _, m := range []int{1, 5} {
				for _, k := range ks {
					for _, n := range tileSizes {
						name := fmt.Sprintf("par%d/wild%d/%dx%dx%d", par, wild, m, k, n)
						a := specialTensor(rng, wild, m, k)
						b := specialTensor(rng, wild, k, n)
						wantBits(t, name+" MatMul", MatMulInto(stale(), a, b), matMulNaive(a, b))
						at := specialTensor(rng, wild, k, m)
						wantBits(t, name+" MatMulAT", MatMulAT(at, b), matMulATNaive(at, b))
						// The accumulating form adds that product, whole,
						// to whatever dst holds.
						acc := specialTensor(rng, wild, m, n)
						sum := acc.Clone()
						sum.Add(matMulATNaive(at, b))
						MatMulATAdd(acc, at, b)
						wantBits(t, name+" MatMulATAdd", acc, sum)
						bt := specialTensor(rng, wild, n, k)
						wantBits(t, name+" MatMulBT", MatMulBTInto(stale(), a, bt), matMulBTNaive(a, bt))
					}
				}
			}
		}
	}
}

// TestMatMulATWideRows: a product row wider than matMulATAddRows'
// on-stack tile takes the heap-row fallback; a row that just fits takes
// one-row tiles.
func TestMatMulATWideRows(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{1024, 1030} {
		a, b := specialTensor(rng, 0, 3, 5), specialTensor(rng, 0, 3, n)
		wantBits(t, fmt.Sprintf("n%d", n), MatMulAT(a, b), matMulATNaive(a, b))
	}
}

// TestKernelZeroRuns: multipliers whose zeros come in runs that start
// and end inside, at and across the groups of four AccumRows forms, and
// across its chunk boundary, against rows of B that a wrongly added
// 0·b would poison (0·Inf and 0·NaN are NaN, and x + 0·b loses x = -0).
// k = 1 is the batch-1 MatMulAT of train-comm.
func TestKernelZeroRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 2, 7, 8, 9, accumChunk, accumChunk + 5, 3 * accumChunk, matmulBlock + 5} {
		for run := 1; run <= 6; run++ {
			for phase := 0; phase < 5; phase++ {
				a := New(2, k).Randn(rng, 1)
				at := New(k, 2).Randn(rng, 1)
				for p := 0; p < k; p++ {
					if (p+phase)/run%2 == 1 { // alternate runs of zeros and non-zeros
						z := float32(0)
						if p%2 == 1 {
							z = negZero
						}
						a.Data[p], a.Data[k+p] = z, z
						at.Data[2*p], at.Data[2*p+1] = z, z
					}
				}
				b := specialTensor(rng, k, k, 5)
				name := fmt.Sprintf("k%d/run%d/phase%d", k, run, phase)
				wantBits(t, name+" MatMul", MatMul(a, b), matMulNaive(a, b))
				wantBits(t, name+" MatMulAT", MatMulAT(at, b), matMulATNaive(at, b))
			}
		}
	}
}

// TestDot4SeedsAndStride checks the tile primitive on its own: seeds are
// the first addend of each chain (the convolution's bias), rows are
// taken at the given stride, and the result is the scalar loop's.
func TestDot4SeedsAndStride(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{1, 2, 27, 64} {
		for _, stride := range []int{k, k + 3} {
			x := specialTensor(rng, 1, k).Data
			w := specialTensor(rng, 1, 3*stride+k).Data
			seeds := [4]float32{0.5, negZero, -denorm, 3}
			var want [4]float32
			for r := range want {
				sum := seeds[r]
				for p := 0; p < k; p++ {
					sum += x[p] * w[r*stride+p]
				}
				want[r] = sum
			}
			var got [4]float32
			got[0], got[1], got[2], got[3] = Dot4(x, w, stride, seeds[0], seeds[1], seeds[2], seeds[3])
			wantBits(t, fmt.Sprintf("k%d/stride%d", k, stride), FromSlice(got[:], 4), FromSlice(want[:], 4))
		}
	}
}

// reluNaive and reluGradNaive are the branching originals the mask
// kernels must reproduce.
func reluNaive(x *Tensor) *Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

func reluGradNaive(x, grad *Tensor) *Tensor {
	out := grad.Clone()
	for i := range out.Data {
		if x.Data[i] <= 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// TestReLUBitPatterns sweeps every sign/exponent/top-mantissa
// combination of the input, with the mantissa's low bits all clear, all
// set and 1 — so ±0, the denormal edge, ±Inf and quiet, signalling,
// positive and negative NaNs are all in — against the `v < 0` and
// `x <= 0` originals.
func TestReLUBitPatterns(t *testing.T) {
	var in []float32
	for hi := uint32(0); hi < 1<<16; hi++ {
		for _, lo := range []uint32{0, 1, 0xffff} {
			in = append(in, math.Float32frombits(hi<<16|lo))
		}
	}
	x := FromSlice(in, len(in))
	// The gradient carries special values too: a masked element is +0
	// whatever it was, a kept one keeps every bit.
	grad := specialTensor(rand.New(rand.NewSource(53)), len(in)/8, len(in))
	// No arithmetic here, so NaNs must keep their payloads too.
	exact := func(what string, got, want *Tensor) {
		for i := range want.Data {
			if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
				t.Fatalf("%s: input %#08x gave %#08x, want %#08x", what, math.Float32bits(in[i]), g, w)
			}
		}
	}
	exact("ReLU", ReLU(x), reluNaive(x))
	exact("ReLUGrad", ReLUGrad(x, grad), reluGradNaive(x, grad))
}

// TestReuse: a large enough buffer is reshaped in place, anything else
// is replaced, and a bad shape still panics.
func TestReuse(t *testing.T) {
	buf := New(4, 6)
	if got := Reuse(buf, 3, 5); got != buf || got.Shape[0] != 3 || got.Shape[1] != 5 || len(got.Data) != 15 {
		t.Fatalf("smaller shape not reused in place: %v len %d", got.Shape, len(got.Data))
	}
	if got := Reuse(buf, 24); got != buf || len(got.Shape) != 1 || len(got.Data) != 24 {
		t.Fatalf("full-capacity shape not reused: %v len %d", got.Shape, len(got.Data))
	}
	if got := Reuse(buf, 5, 5); got == buf || len(got.Data) != 25 {
		t.Fatalf("too-small buffer reused")
	}
	if got := Reuse(nil, 2, 2); got.Len() != 4 {
		t.Fatalf("nil buffer: %v", got.Shape)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a non-positive dimension")
		}
	}()
	Reuse(buf, 0, 3)
}

// addScaledNaive is AddScaled's reference: one element per pass.
func addScaledNaive(t, x *Tensor, a float32) {
	for i, v := range x.Data {
		t.Data[i] += a * v
	}
}

// TestAddScaledBitPatterns holds the unrolled AddScaled to the naive
// loop, bit for bit, over lengths 0–9 (every tail of the 4-wide pass)
// and one of 1 Mi+3, operands salted with ±0, denormals, ±Inf and NaN,
// and a scale of 0, −0, 1 and −lr.
func TestAddScaledBitPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	special := append(append([]float32(nil), finiteSpecials...), nonFinite...)
	operand := func(n int) *Tensor {
		x := &Tensor{Shape: []int{n}, Data: make([]float32, n)}
		for i := range x.Data {
			if rng.Intn(3) == 0 {
				x.Data[i] = special[rng.Intn(len(special))]
			} else {
				x.Data[i] = float32(rng.NormFloat64())
			}
		}
		return x
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1<<20 + 3} {
		for _, a := range []float32{0, negZero, 1, -0.05} {
			dst, x := operand(n), operand(n)
			want := &Tensor{Shape: dst.Shape, Data: append([]float32(nil), dst.Data...)}
			addScaledNaive(want, x, a)
			dst.AddScaled(x, a)
			wantBits(t, fmt.Sprintf("n=%d a=%v", n, a), dst, want)
		}
	}
}

// BenchmarkAddScaled is the fold of one train-comm report: 1 Mi floats
// added into the iteration's gradient sum.
func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dst, x := New(1<<20).Randn(rng, 1), New(1<<20).Randn(rng, 1)
	b.SetBytes(3 * 4 << 20) // read dst and x, write dst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.AddScaled(x, 0.5)
	}
}

func BenchmarkReLU(b *testing.B) {
	// The activation of train-compute's token: 16 × 16 × 32 × 32.
	x := New(16, 16*32*32).Randn(rand.New(rand.NewSource(3)), 1)
	var out, dx *Tensor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = ReLUInto(out, x)
		dx = ReLUGradInto(dx, x, out)
	}
}

package tensor

import (
	"encoding/binary"
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

// staleSalted is stale with the NaNs mixed with ±0 and ±Inf: a store
// form that read its destination instead of overwriting it would turn
// an element into a NaN or an infinity, or keep a -0 where the product
// is +0.
func staleSalted(rng *rand.Rand) *Tensor {
	t := stale()
	for i := range t.Data {
		t.Data[i] = []float32{nan, 0, negZero, inf, -inf}[rng.Intn(5)]
	}
	return t
}

// eachPath runs f once per kernel path this CPU has — the AVX2 tile,
// then the portable Go loops — and restores the path the process
// started with.
func eachPath(f func(path string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, on := range []bool{true, false} {
		if on && !cpuHasAVX2() {
			continue
		}
		useAVX2 = on
		f(KernelPath())
	}
}

// tileSizes are the widths around the 4-wide register tile and the
// 4-multiplier group — below it, at it, one over, and two tiles plus a
// tail — and around the 8-wide vector of the AVX2 tile: one vector plus
// a tail, two plus one.
var tileSizes = []int{1, 3, 4, 5, 11, 17}

// TestKernelBitPatterns runs every matmul kernel against its naive
// reference, comparing bit patterns, over tile tails in every dimension,
// k spanning several AccumRows chunks and matmul blocks, MatMulBT on
// both sides of btLanesMin, operands salted with ±0, denormals, ±Inf
// and NaN, at fan-out 1, 2 and 8 — through the …Into forms, into stale
// oversized buffers (MatMulATInto's salted with ±0 and ±Inf too), and
// through MatMulATAdd onto a non-zero destination — on each kernel
// path.
func TestKernelBitPatterns(t *testing.T) {
	forceParallel(t)
	t.Cleanup(func() { SetParallelism(0) })
	rng := rand.New(rand.NewSource(41))
	ks := append([]int{matmulBlock + 2, 2*matmulBlock + 7}, tileSizes...)
	eachPath(func(path string) {
		for _, par := range []int{1, 2, 8} {
			SetParallelism(par)
			for _, wild := range []int{0, 2} {
				for _, m := range []int{1, 5, btLanesMin, 13} {
					for _, k := range ks {
						for _, n := range tileSizes {
							name := fmt.Sprintf("%s/par%d/wild%d/%dx%dx%d", path, par, wild, m, k, n)
							a := specialTensor(rng, wild, m, k)
							b := specialTensor(rng, wild, k, n)
							wantBits(t, name+" MatMul", MatMulInto(stale(), a, b), matMulNaive(a, b))
							at := specialTensor(rng, wild, k, m)
							wantBits(t, name+" MatMulAT", MatMulAT(at, b), matMulATNaive(at, b))
							wantBits(t, name+" MatMulATInto", MatMulATInto(staleSalted(rng), at, b), matMulATNaive(at, b))
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
	})
}

// TestMatMulATWideRows: a product row wider than matMulATRows' on-stack
// tile takes the heap-row fallback in MatMulATAdd and one row at a time
// in the store form; a row that just fits takes one-row tiles.
func TestMatMulATWideRows(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	eachPath(func(path string) {
		for _, n := range []int{1024, 1030} {
			name := fmt.Sprintf("%s/n%d", path, n)
			a, b := specialTensor(rng, 0, 3, 5), specialTensor(rng, 0, 3, n)
			want := matMulATNaive(a, b)
			wantBits(t, name+" MatMulAT", MatMulAT(a, b), want)
			acc := specialTensor(rng, 0, 5, n)
			sum := acc.Clone()
			sum.Add(want)
			MatMulATAdd(acc, a, b)
			wantBits(t, name+" MatMulATAdd", acc, sum)
		}
	})
}

// TestMatMulBTTallStrips: a C taller than matMulBTCols' on-stack tile
// is done in strips of the tile's height; one that just fits takes one
// Cᵀ row per tile.
func TestMatMulBTTallStrips(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	eachPath(func(path string) {
		for _, m := range []int{1024, 1030} {
			a, b := specialTensor(rng, 1, m, 6), specialTensor(rng, 1, 5, 6)
			wantBits(t, fmt.Sprintf("%s/m%d", path, m), MatMulBT(a, b), matMulBTNaive(a, b))
		}
	})
}

// TestKernelZeroRuns: multipliers whose zeros come in runs that start
// and end inside, at and across the groups of four AccumRows forms, and
// across its chunk boundary, against rows of B that a wrongly added
// 0·b would poison (0·Inf and 0·NaN are NaN, and x + 0·b loses x = -0).
// k = 1 is the batch-1 MatMulAT of train-comm.
func TestKernelZeroRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	eachPath(func(path string) {
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
					// Rows of 5 stay on the Go loops; rows of 13 take
					// the tile's vector and its scalar tail.
					for _, n := range []int{5, 13} {
						b := specialTensor(rng, k, k, n)
						name := fmt.Sprintf("%s/k%d/run%d/phase%d/n%d", path, k, run, phase, n)
						wantBits(t, name+" MatMul", MatMul(a, b), matMulNaive(a, b))
						wantBits(t, name+" MatMulAT", MatMulAT(at, b), matMulATNaive(at, b))
					}
				}
			}
		}
	})
}

// accumList is AccumRows's arithmetic as one list: every non-zero
// multiplier — NaNs included, ±0 not — in ascending p, handed to
// axpyList whole, which takes them in fours from the front and the last
// 1–3 one at a time. That is the grouping AccumRows keeps across its
// chunks with its carry, and the list goes through the row tile
// AccumRows reaches on either path, so the two agree bit for bit, NaN
// payloads included.
func accumList(c, a []float32, as int, b []float32) {
	n := len(c)
	var av []float32
	var off []int
	for p := range len(b) / n {
		if v := a[p*as]; v != 0 {
			av, off = append(av, v), append(off, p*n)
		}
	}
	if len(av) > 0 {
		axpyList(c, b, av, off)
	}
}

// TestAccumRowsCompaction holds AccumRows to accumList on each kernel
// path, bit for bit: multipliers contiguous (as = 1, a row of A) and
// strided (as > 1, a column of Aᵀ), 0–33 rows around the eight-entry
// step and 64 and 100 across the Go loop's chunks, rows of c narrower
// than a vector and wider, with the multipliers' array starting
// anywhere in a vector. The multipliers mix ±0, NaNs of either sign
// with payloads, ±Inf, denormals and normal numbers, with whole
// eight-entry steps of zeros, one in eight non-zero, or none; the rows
// of b hold ±Inf and NaN that a wrongly added zero multiplier would
// spread, and c starts with -0s, which an added +0 would flip. Nothing
// past the end of c may be written, and too few multipliers for the
// rows are refused.
func TestAccumRowsCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	eachPath(func(path string) {
		for _, as := range []int{1, 3, 67} {
			for _, n := range []int{5, 8, 13, 64} {
				for np := 0; np <= 100; np++ {
					if np > 33 && np != 64 && np != 100 {
						continue
					}
					for mode := range 4 {
						aOff := rng.Intn(vecLen)
						a := make([]float32, aOff+max(0, (np-1)*as+1))[aOff:]
						for p := range np {
							v := reluSpecials[rng.Intn(len(reluSpecials))]
							if rng.Intn(2) == 0 {
								v = float32(rng.NormFloat64())
							}
							switch {
							case mode == 1 && p/vecLen%2 == 0, mode == 2 && rng.Intn(8) != 0, mode == 3:
								v = []float32{0, negZero}[rng.Intn(2)]
							}
							a[p*as] = v
						}
						b := specialTensor(rng, np, np*n+1).Data[:np*n]
						c := specialTensor(rng, 0, n).Data
						for j := range c {
							if j%3 == 0 {
								c[j] = negZero
							}
						}
						want := append([]float32(nil), c...)
						accumList(want, a, as, b)
						buf := make([]float32, n+vecLen)
						copy(buf, c)
						for j := n; j < len(buf); j++ {
							buf[j] = math.Float32frombits(canary)
						}
						AccumRows(buf[:n:n], a, as, b)
						name := fmt.Sprintf("%s/as%d/n%d/np%d/mode%d", path, as, n, np, mode)
						for j, w := range want {
							if g := buf[j]; math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("%s: c[%d] = %#08x, want %#08x", name, j, math.Float32bits(g), math.Float32bits(w))
							}
						}
						for j := n; j < len(buf); j++ {
							if math.Float32bits(buf[j]) != canary {
								t.Fatalf("%s: wrote past the end of c, at c[%d]", name, j)
							}
						}
					}
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic for fewer multipliers than rows", path)
				}
			}()
			AccumRows(make([]float32, 8), make([]float32, 2*3), 3, make([]float32, 3*8))
		}()
	})
}

// TestDot4SeedsAndStride checks the tile primitive on its own: seeds are
// the first addend of each chain (the convolution's bias), rows are
// taken at the given stride, and the result is the scalar loop's.
func TestDot4SeedsAndStride(t *testing.T) {
	eachPath(func(path string) { testDot4SeedsAndStride(t, path) })
}

func testDot4SeedsAndStride(t *testing.T, path string) {
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
					sum += float32(x[p] * w[r*stride+p])
				}
				want[r] = sum
			}
			var got [4]float32
			got[0], got[1], got[2], got[3] = Dot4(x, w, stride, seeds[0], seeds[1], seeds[2], seeds[3])
			wantBits(t, fmt.Sprintf("%s/k%d/stride%d", path, k, stride), FromSlice(got[:], 4), FromSlice(want[:], 4))
		}
	}
}

// TestAddRowsStride checks the every-multiplier row accumulation on its
// own: rows taken at a stride with gaps between them, every multiplier
// added — zeros and non-finite values included — and a row range that
// overruns b refused.
func TestAddRowsStride(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	eachPath(func(path string) {
		for _, n := range tileSizes {
			for _, k := range []int{1, 3, 4, 5, 27} {
				for _, bs := range []int{n, n + 3} {
					a := specialTensor(rng, 1, k).Data
					b := specialTensor(rng, 1, (k-1)*bs+n).Data
					got := specialTensor(rng, 0, n)
					want := got.Clone()
					for p, av := range a {
						for j := range want.Data {
							want.Data[j] += float32(av * b[p*bs+j])
						}
					}
					AddRows(got.Data, a, b, bs)
					wantBits(t, fmt.Sprintf("%s/n%d/k%d/bs%d", path, n, k, bs), got, want)
				}
			}
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("expected a panic for rows past the end of b")
		}
	}()
	AddRows(make([]float32, 4), make([]float32, 3), make([]float32, 11), 4)
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

// reluSpecials are the inputs the masks decide on their own: ±0, the
// smallest denormals, ±Inf, and NaNs of either sign, quiet and
// signalling, with payloads at both ends.
var reluSpecials = []float32{
	0, negZero, denorm, -denorm, inf, -inf, nan,
	math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
	math.Float32frombits(0xff800001), math.Float32frombits(0x7fffffff),
	math.Float32frombits(0xffffffff), math.Float32frombits(0x7fc00001),
}

// checkReLU runs ReLUInto and ReLUGradInto, on the path selected now,
// over x and the upstream gradient g (one length), with the inputs and
// the destination starting off floats into their arrays, and holds them
// to reluNaive and reluGradNaive bit for bit — there is no arithmetic
// here, so NaNs keep their payloads too. Nothing in front of the
// destination or past its end may be written. A length of 0, which a
// Tensor cannot have, goes to the kernels' entry points directly.
func checkReLU(t *testing.T, what string, x, g []float32, off int) {
	t.Helper()
	n := len(x)
	at := func(v []float32) *Tensor {
		buf := make([]float32, off+n)
		copy(buf[off:], v)
		return &Tensor{Shape: []int{n}, Data: buf[off:]}
	}
	xt, gt := at(x), at(g)
	buf := make([]float32, off+n+vecLen)
	guarded := func(pass string, run func(dst []float32)) {
		t.Helper()
		for i := range buf {
			buf[i] = math.Float32frombits(canary)
		}
		run(buf[off : off+n : off+n])
		for i, v := range buf {
			if (i < off || i >= off+n) && math.Float32bits(v) != canary {
				t.Fatalf("%s %s n=%d: wrote outside the destination, at %d of %d", what, pass, n, i-off, n)
			}
		}
	}
	if n == 0 {
		guarded("ReLU", func(dst []float32) { reluVec(dst, xt.Data, xt.Data, 0) })
		guarded("ReLUGrad", func(dst []float32) { reluVec(dst, xt.Data, gt.Data, denorm) })
		return
	}
	exact := func(pass string, got []float32, want *Tensor) {
		t.Helper()
		for i, w := range want.Data {
			if g, w := math.Float32bits(got[i]), math.Float32bits(w); g != w {
				t.Fatalf("%s %s n=%d: input %#08x gave %#08x at %d, want %#08x", what, pass, n, math.Float32bits(x[i]), g, i, w)
			}
		}
	}
	guarded("ReLU", func(dst []float32) {
		ReLUInto(&Tensor{Shape: []int{n}, Data: dst}, xt)
		exact("ReLU", dst, reluNaive(xt))
	})
	guarded("ReLUGrad", func(dst []float32) {
		ReLUGradInto(&Tensor{Shape: []int{n}, Data: dst}, xt, gt)
		exact("ReLUGrad", dst, reluGradNaive(xt, gt))
	})
}

// TestReLUBitPatterns sweeps every sign/exponent/top-mantissa
// combination of the input, with the mantissa's low bits all clear, all
// set and 1 — so ±0, the denormal edge, ±Inf and quiet, signalling,
// positive and negative NaNs are all in — against the `v < 0` and
// `x <= 0` originals, on each kernel path. Then every length 0–33 at
// every start within a vector: each tail of the eight-float step and of
// the 32-float one, no load or store aligned on purpose, the inputs
// drawn from the sweep and reluSpecials.
func TestReLUBitPatterns(t *testing.T) {
	var in []float32
	for hi := uint32(0); hi < 1<<16; hi++ {
		for _, lo := range []uint32{0, 1, 0xffff} {
			in = append(in, math.Float32frombits(hi<<16|lo))
		}
	}
	// The gradient carries special values too: a masked element is +0
	// whatever it was, a kept one keeps every bit.
	grad := specialTensor(rand.New(rand.NewSource(53)), len(in)/8, len(in)).Data
	eachPath(func(path string) {
		checkReLU(t, path+"/sweep", in, grad, 0)
		rng := rand.New(rand.NewSource(57))
		draw := func() float32 {
			if rng.Intn(2) == 0 {
				return reluSpecials[rng.Intn(len(reluSpecials))]
			}
			return in[rng.Intn(len(in))]
		}
		for n := 0; n <= 33; n++ {
			for off := 0; off < vecLen; off++ {
				x, g := make([]float32, n), make([]float32, n)
				for i := range x {
					x[i], g[i] = draw(), draw()
				}
				checkReLU(t, fmt.Sprintf("%s/n%d/off%d", path, n, off), x, g, off)
			}
		}
	})
}

// FuzzReLU holds ReLUInto and ReLUGradInto to reluNaive and
// reluGradNaive on both kernel paths (checkReLU) over 0–67 elements at
// any offset into their arrays. The input and the gradient are taken
// bit for bit from the fuzzer's bytes, then drawn from reluSpecials and
// normal numbers of either sign.
func FuzzReLU(f *testing.F) {
	f.Add(uint8(33), uint8(1), int64(1), []byte(nil))
	f.Add(uint8(8), uint8(0), int64(2), []byte{0, 0, 0x80, 0xff, 0, 0, 0, 0x80, 1, 0, 0xc0, 0xff, 1, 0, 0x80, 0x7f})
	f.Add(uint8(0), uint8(5), int64(3), []byte(nil))
	f.Add(uint8(67), uint8(7), int64(4), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n, off uint8, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		value := func() float32 {
			if len(raw) >= 4 {
				v := math.Float32frombits(binary.LittleEndian.Uint32(raw))
				raw = raw[4:]
				return v
			}
			if rng.Intn(3) == 0 {
				return reluSpecials[rng.Intn(len(reluSpecials))]
			}
			return float32(rng.NormFloat64())
		}
		x, g := make([]float32, int(n)%68), make([]float32, int(n)%68)
		for i := range x {
			x[i] = value()
		}
		for i := range g {
			g[i] = value()
		}
		eachPath(func(path string) { checkReLU(t, path, x, g, int(off)%vecLen) })
	})
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
		t.Data[i] += float32(a * v)
	}
}

// TestAddScaledBitPatterns holds AddScaled to the naive loop, bit for
// bit, on each kernel path, over lengths 0–9 and 15–17 (just below, at
// and just past one and two AVX2 vectors) and one of 1 Mi+3, operands salted with ±0, denormals, ±Inf and NaN, and a scale
// of 0, −0, 1 and −lr.
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
	eachPath(func(path string) {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 1<<20 + 3} {
			for _, a := range []float32{0, negZero, 1, -0.05} {
				dst, x := operand(n), operand(n)
				want := &Tensor{Shape: dst.Shape, Data: append([]float32(nil), dst.Data...)}
				addScaledNaive(want, x, a)
				dst.AddScaled(x, a)
				wantBits(t, fmt.Sprintf("%s/n=%d a=%v", path, n, a), dst, want)
			}
		}
		// Where dst and the product are both NaN, the product's NaN is the
		// one kept, on the Go loop and on the tile alike, as the top-k
		// codec's sparse fold keeps it.
		for _, n := range []int{7, 19} {
			dst, x := New(n), New(n)
			for i := range dst.Data {
				dst.Data[i], x.Data[i] = math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002)
			}
			dst.AddScaled(x, 1)
			for i, v := range dst.Data {
				if math.Float32bits(v) != 0xffc00002 {
					t.Fatalf("%s/n=%d: NaN + NaN product gave %#08x at %d, want the product's 0xffc00002", path, n, math.Float32bits(v), i)
				}
			}
		}
	})
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

// BenchmarkAccumRows and BenchmarkAddRows are the owner benchmarks of
// the row tile, at the rows train-compute's CNN token gives it: the
// conv weight gradient's 27-tap rows under 1024 ReLU-sparse
// multipliers (the portable path's; AVX2 takes AccumPlane), the dense
// layer's 64-wide rows under a matmul block, its weight gradient's
// 64-wide rows under the 16 samples of a token, the multipliers a
// column of the 4096-wide activation (MatMulAT's stride), the
// conv forward's 144-pixel panel rows under 27 taps, and the dense
// input gradient's 16-lane rows of Cᵀ under 64 multipliers.
func BenchmarkAccumRows(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range []struct {
		name        string
		n, rows, as int
		sparse      bool
	}{{"conv-grad", 27, 1024, 1, true}, {"dense-fwd", 64, matmulBlock, 1, false}, {"dense-gw", 64, 16, 4096, true}} {
		a := New((s.rows-1)*s.as+1).Randn(rng, 1)
		if s.sparse {
			for i := range a.Data {
				if rng.Intn(2) == 0 {
					a.Data[i] = 0
				}
			}
		}
		rows, c := New(s.rows, s.n).Randn(rng, 1), New(s.n)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AccumRows(c.Data, a.Data, s.as, rows.Data)
			}
		})
	}
}

func BenchmarkAddRows(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	for _, s := range []struct {
		name    string
		n, rows int
	}{{"conv-fwd", 144, 27}, {"dense-dx", 16, 64}} {
		a, rows, c := New(s.rows).Randn(rng, 1), New(s.rows, s.n).Randn(rng, 1), New(s.n)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddRows(c.Data, a.Data, rows.Data, s.n)
			}
		})
	}
}

package tensor

import "math"

// This file holds the register-tile primitives under the matmul and
// convolution kernels, the branch-free elementwise kernels, and the key
// compaction under the top-k gradient codec. A tile changes how many
// output elements are in flight at once, never the sequence of
// additions any one of them sees: a float32 add has a latency of
// several cycles, so a loop that feeds one accumulator runs at one add
// per latency, while four independent accumulators (Dot4) or one
// accumulator per output column carried through four products
// (AccumRows, AddRows) keep the adder busy.
//
// The row tile, the rank-k row, ReLU and the compactions (AccumRows's
// multipliers, CompactKeys's keys) have two implementations each. The Go
// loops below are the portable path and the reference; on amd64 CPUs
// with AVX2 the code in kernels_amd64.s takes eight lanes per
// instruction instead. The tile multiplies and then adds, each product
// rounded on its own — the Go loops convert every product to float32
// explicitly, which forbids the compiler to fuse it into the add (Go
// fuses a*b+c on arm64 and may on other targets) — so the two paths give
// the same bits; ReLU and the compactions do no arithmetic on values,
// and both paths of each keep the same bits.

// useAVX2 selects the AVX2 code. It is set once, from CPUID, and read
// by every kernel call; tests flip it to run both paths.
var useAVX2 = cpuHasAVX2()

// vecLen is the AVX2 tile's width in float32 lanes. A row shorter than
// one vector gains nothing from it and stays on the Go loops.
const vecLen = 8

// KernelPath names the inner loops this process runs: "avx2" when the
// row tile and the compaction run on AVX2, "portable" when they run as
// Go loops. The results are the same either way; only the speed differs.
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// Dot4 advances four running sums by the dot products of x with four
// rows of w — row t is w[t·stride : t·stride+len(x)] — and returns them.
// Sum t takes x[p]·row_t[p] for p = 0, 1, … one add at a time, exactly
// the chain a scalar loop over that row alone would run from the same
// seed; the four chains only share the load of x[p].
func Dot4(x, w []float32, stride int, s0, s1, s2, s3 float32) (float32, float32, float32, float32) {
	k := len(x)
	w0 := w[:k]
	w1 := w[stride:][:k]
	w2 := w[2*stride:][:k]
	w3 := w[3*stride:][:k]
	for p, xv := range x {
		s0 += float32(xv * w0[p])
		s1 += float32(xv * w1[p])
		s2 += float32(xv * w2[p])
		s3 += float32(xv * w3[p])
	}
	return s0, s1, s2, s3
}

// AccumRows adds Σ_p a[p·as] · b[p·n : (p+1)·n] into c, for n = len(c)
// and p over the len(b)/n rows of b. Every c[j] takes its products one
// add at a time in ascending p, and a product whose multiplier a[p·as]
// is zero is never added — the arithmetic of the naive axpy loop with
// its zero-skip. What changes is the memory traffic and the branches:
// the non-zero multipliers of a chunk are first compacted into a list
// (the store is unconditional and only the list length depends on the
// value, so there is no branch for a ReLU-sparse operand to mispredict),
// then taken four at a time, in order, with c[j] held in a register
// across the four adds instead of stored and reloaded after each.
//
// On the AVX2 tile the whole of it is one call (accumVec): eight
// multipliers are compacted a step, and the list goes through the row
// tile in the same fours, so the bits are the Go loop's.
func AccumRows(c, a []float32, as int, b []float32) {
	n := len(c)
	np := len(b) / n
	if accumVec(c, a, as, b, np) {
		return
	}
	// Up to three multipliers left over from one chunk are carried into
	// the next, so only the last chunk's remainder goes one at a time.
	var (
		av  [accumChunk + 3]float32 // non-zero multipliers, ascending p
		row [accumChunk + 3]int     // their rows' offsets in b
		cnt int
	)
	for p0 := 0; p0 < np; p0 += accumChunk {
		ai, off := p0*as, p0*n
		for range min(accumChunk, np-p0) {
			v := a[ai]
			av[cnt], row[cnt] = v, off
			cnt += nonZero(v)
			ai, off = ai+as, off+n
		}
		t := cnt &^ 3
		if t > 0 {
			axpyList(c, b, av[:t], row[:t])
		}
		for r := t; r < cnt; r++ {
			av[r-t], row[r-t] = av[r], row[r]
		}
		cnt -= t
	}
	if cnt > 0 {
		axpyList(c, b, av[:cnt], row[:cnt])
	}
}

// nonZero is 1 when v != 0 — NaNs included, ±0 not — and 0 otherwise,
// computed from the bits: the compiler turns `if v != 0 { cnt++ }` into
// a branch, which a ReLU-sparse operand mispredicts half the time.
func nonZero(v float32) int {
	return int((uint64(math.Float32bits(v)&0x7fffffff) + 0x7fffffff) >> 31)
}

// accumChunk is how many multipliers AccumRows compacts at a time: large
// enough to amortize the pass, small enough that zeroing the two
// on-stack lists costs a sub-cutoff matmul nothing it would notice.
const accumChunk = 16

// AddRows adds Σ_p a[p] · b[p·bs : p·bs+n] into c, for n = len(c) and p
// over every index of a: the row accumulation of AccumRows with every
// multiplier added, zeros included. It is the arithmetic of a loop that
// has no zero-skip to keep — a convolution's forward pass, a dense
// layer's input gradient — and every c[j] takes its products one add at
// a time in ascending p.
func AddRows(c, a, b []float32, bs int) {
	if len(a) == 0 || len(c) == 0 {
		return
	}
	if bs < 0 || (len(a)-1)*bs+len(c) > len(b) {
		panic("tensor: AddRows rows out of range")
	}
	if axpyStrideVec(c, a, b, bs) {
		return
	}
	p := 0
	for ; p+4 <= len(a); p += 4 {
		axpy4(c, b[p*bs:], b[(p+1)*bs:], b[(p+2)*bs:], b[(p+3)*bs:], a[p], a[p+1], a[p+2], a[p+3])
	}
	for ; p < len(a); p++ {
		axpy1(c, b[p*bs:], a[p])
	}
}

// axpyList adds av[t] · b[off[t] : off[t]+len(c)] into c for each t in
// order. The offsets ascend and every row lies inside b.
func axpyList(c, b, av []float32, off []int) {
	if axpyListVec(c, b, av, off) {
		return
	}
	t := 0
	for ; t+4 <= len(av); t += 4 {
		axpy4(c, b[off[t]:], b[off[t+1]:], b[off[t+2]:], b[off[t+3]:], av[t], av[t+1], av[t+2], av[t+3])
	}
	for ; t < len(av); t++ {
		axpy1(c, b[off[t]:], av[t])
	}
}

func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j, s := range c {
		s += float32(a0 * b0[j])
		s += float32(a1 * b1[j])
		s += float32(a2 * b2[j])
		s += float32(a3 * b3[j])
		c[j] = s
	}
}

// axpy1 writes the product as the add's first operand, which the
// compiler keeps as the add's destination — with the race detector on
// as well — so where the product and c[j] are both NaN the product's is
// returned, as on the AVX2 tile (oneRow) and in the top-k codec's
// sparse fold: AddScaled matches that fold to the NaN payload.
func axpy1(c, b []float32, a float32) {
	b = b[:len(c)]
	for j := range c {
		c[j] = float32(a*b[j]) + c[j]
	}
}

// AddOuterScaled adds a·(x⊗d) into c, for n = len(d) and c holding
// len(x)·n floats: c[i·n+j] takes a·(x[i]·d[j]). It is the fold of a
// weight gradient reported as its rank-1 factors, and gives the bits of
// the two steps it replaces, MatMulATInto of the one-row x and d and
// then AddScaled with a: each product x[i]·d[j] is rounded and added to
// +0 (so a −0 product becomes +0), scaled by a and rounded, and added
// to c[i·n+j] as the add's first operand, as axpy1 adds it. A row whose
// x[i] is zero, of either sign, is skipped: the two steps add a·(+0)
// there, which for a finite a changes no bit of an element that is not
// −0 or a signalling NaN — and an accumulator cleared to +0 and only
// added to holds neither (the argument of the top-k codec's sparse
// fold). It allocates nothing.
func AddOuterScaled(c, x, d []float32, a float32) {
	n := len(d)
	if len(c) != len(x)*n {
		panic("tensor: AddOuterScaled needs len(c) = len(x)·len(d)")
	}
	if outerVec(c, x, d, a) {
		return
	}
	for i, xi := range x {
		if xi != 0 {
			outer1(c[i*n:(i+1)*n], d, xi, a)
		}
	}
}

// AddOutersScaled adds a·(xs[t]⊗ds[t]) into c for t = 0, 1, … in that
// order: the bits of the calls AddOuterScaled(c, xs[t], ds[t], a) one
// after another, every element taking its terms one add at a time in
// ascending t. c may be a band of the sum, so that a caller can fold one
// cache-sized stretch of rows through all k terms before moving on: it
// holds rows lo … lo+len(c)/n−1 of the m×n sum, n = len(ds[t]), and row
// r of c takes xs[t][lo+r]. Every ds[t] has n floats and every xs[t] at
// least lo+len(c)/n. It is the fold of the rank-1 weight gradients an
// iteration's one-row tokens report, and allocates nothing.
//
// On the AVX2 tile a row of a vector or more keeps its columns in
// registers across all its terms (outersAVX2), instead of loading and
// storing them once per term; its non-zero multipliers are compacted
// first, as AccumRows's are, up to outersChunk terms at a time. Each
// operation keeps outerAVX2's operand order, so the bits, NaN payloads
// included, are those of the per-term calls. Elsewhere the terms go
// through AddOuterScaled one at a time.
func AddOutersScaled(c []float32, lo int, xs, ds [][]float32, a float32) {
	if len(xs) != len(ds) {
		panic("tensor: AddOutersScaled needs one d per x")
	}
	if len(ds) == 0 || len(c) == 0 {
		return
	}
	n := len(ds[0])
	if n == 0 || len(c)%n != 0 {
		panic("tensor: AddOutersScaled needs len(c) a multiple of len(d)")
	}
	hi := lo + len(c)/n
	for _, d := range ds {
		if len(d) != n {
			panic("tensor: AddOutersScaled needs every d of one length")
		}
	}
	if !useAVX2 || n < vecLen {
		for t, x := range xs {
			AddOuterScaled(c, x[lo:hi], ds[t], a)
		}
		return
	}
	var (
		av [outersChunk]float32  // non-zero multipliers, ascending t
		dp [outersChunk]*float32 // their terms' d
	)
	for r := lo; r < hi; r++ {
		row := c[(r-lo)*n : (r-lo+1)*n]
		for t0 := 0; t0 < len(xs); t0 += outersChunk {
			cnt := 0
			for t := t0; t < min(t0+outersChunk, len(xs)); t++ {
				v := xs[t][r]
				av[cnt], dp[cnt] = v, &ds[t][0]
				cnt += nonZero(v)
			}
			if cnt > 0 {
				outersAVX2(row, av[:cnt], dp[:cnt], a)
			}
		}
	}
}

// outersChunk is how many terms AddOutersScaled's AVX2 row takes at a
// time: twice an iteration's worth of train-comm's tokens.
const outersChunk = 32

// outer1 is one row of AddOuterScaled on the Go loops.
func outer1(c, d []float32, xi, a float32) {
	d = d[:len(c)]
	for j := range c {
		c[j] = float32(a*(float32(xi*d[j])+0)) + c[j]
	}
}

// ReLUInto writes max(0, x) element-wise into dst (see Reuse) and
// returns it: dst[i] is 0 where x[i] < 0 and x[i] otherwise.
//
// The comparison is done on the bit patterns so the loop has no
// data-dependent branch (activations are negative about half the time,
// which a branch predictor cannot learn). x < 0 holds exactly for the
// patterns 0x80000001 … 0xff800000: sign set, not -0, not a NaN. -0 and
// NaNs of either sign pass through unchanged, as `x < 0` being false
// lets them. On the AVX2 tile (reluVec) an ordered compare and a mask
// give the same bits eight elements at a time.
func ReLUInto(dst, x *Tensor) *Tensor {
	out := Reuse(dst, x.Shape...)
	o := out.Data[:len(x.Data)]
	if reluVec(o, x.Data, x.Data, 0) {
		return out
	}
	for i, v := range x.Data {
		b := math.Float32bits(v)
		o[i] = math.Float32frombits(b & keepUnless(isNegative(b)))
	}
	return out
}

// ReLUGradInto writes the upstream gradient masked by the forward
// input's sign into dst (see Reuse) and returns it: dst[i] is 0 where
// x[i] <= 0 and grad[i] otherwise. Branch-free like ReLUInto; x <= 0
// adds the two zeros to the x < 0 patterns, and a NaN input still lets
// the gradient through. On the AVX2 tile x <= 0 is x below the smallest
// positive denormal, 0x1p-149: no float lies between.
func ReLUGradInto(dst, x, grad *Tensor) *Tensor {
	if x.Len() != grad.Len() {
		panic("tensor: ReLUGrad size mismatch")
	}
	out := Reuse(dst, grad.Shape...)
	g, o := grad.Data[:len(x.Data)], out.Data[:len(x.Data)]
	if reluVec(o, x.Data, g, 0x1p-149) {
		return out
	}
	for i, v := range x.Data {
		b := math.Float32bits(v)
		zero := (uint64(b&0x7fffffff) - 1) >> 63 // 1 for ±0
		o[i] = math.Float32frombits(math.Float32bits(g[i]) & keepUnless(isNegative(b)|zero))
	}
	return out
}

// isNegative returns 1 when the float32 with bit pattern b compares
// below zero and 0 otherwise: b - 0x80000001 wraps the negative
// non-NaN, non-zero patterns onto [0, 0x7f800000).
func isNegative(b uint32) uint64 {
	return (uint64(b-0x80000001) - 0x7f800000) >> 63
}

// keepUnless turns a 0/1 flag into an AND mask: all ones for 0, zero
// for 1.
func keepUnless(flag uint64) uint32 { return uint32(flag - 1) }

// CompactKeys is a stream compaction on float32 keys: the key of a
// value is its bit pattern with the sign bit cleared, which orders as
// |v| does (±0 equal, denormals in place, every NaN above +Inf). It
// copies the index and value of each entry of src whose key reaches lo
// into idx and val, in order, and returns how many it kept and how many
// of those have a key strictly above hi. An entry's index is srcIdx[i],
// or base+i when srcIdx is nil. The kept keys in [lo, hi] are ties, of
// which only the first ties are kept (ties < 0 keeps them all), and the
// pass ends once it has kept stop entries. A hi of 1<<31-1 or more puts
// no key above it.
//
// The store contract: idx and val must hold min(len(src), stop+7)
// entries, because a step stores all eight of its lanes at the write
// cursor — up to seven past the last entry kept — and only advances the
// cursor past the kept ones. They may instead be srcIdx and src
// themselves, a compaction in place: the write cursor never passes the
// read cursor. The entries past the n kept are left undefined.
//
// The Go loop (compactKeysGo) is the portable path and the reference.
// On AVX2 the vector path takes the slice eight entries a step, and
// hands a step to the Go loop in two cases only: the tail of fewer than
// eight, and the step in which the tie budget or the stop runs out.
// Both paths keep the same entries.
func CompactKeys(idx []uint32, val []float32, src []float32, srcIdx []uint32, base, lo, hi uint32, ties, stop int) (n, above int) {
	stop = max(0, min(stop, len(src)))
	if need := min(len(src), stop+7); len(idx) < need || len(val) < need || srcIdx != nil && len(srcIdx) < len(src) {
		panic("tensor: CompactKeys slices too short")
	}
	// Keys are 31 bits: lo = 1<<31 keeps nothing, and nothing lies above
	// 1<<31-1. A hi below lo-1 counts what lo-1 counts: every kept key.
	lo, hi = min(lo, 1<<31), min(hi, 1<<31-1)
	if lo > hi+1 {
		hi = lo - 1
	}
	if ties < 0 {
		ties = len(src)
	}
	for i := 0; i < len(src) && n < stop; {
		if ties == 0 {
			// The budget is spent: from here only keys above hi are kept.
			lo = max(lo, hi+1)
		}
		end := len(src)
		if useAVX2 {
			r, c, a := compactAVX2(idx[n:], val[n:], src[i:], indexFrom(srcIdx, i, len(src)), base+uint32(i), lo, hi, ties, stop-n)
			i, n, above, ties = i+r, n+c, above+a, ties-(c-a)
			end = min(i+vecLen, len(src))
		}
		r, c, a := compactKeysGo(idx[n:], val[n:], src[i:end], indexFrom(srcIdx, i, end), base+uint32(i), lo, hi, ties, stop-n)
		i, n, above, ties = i+r, n+c, above+a, ties-(c-a)
	}
	return n, above
}

// indexFrom is srcIdx[i:end], or nil for a nil srcIdx.
func indexFrom(srcIdx []uint32, i, end int) []uint32 {
	if srcIdx == nil {
		return nil
	}
	return srcIdx[i:end]
}

// compactKeysGo is CompactKeys's Go loop, for lo ≤ 1<<31 and lo-1 ≤ hi
// < 1<<31 (CompactKeys's clamps, which put every key above hi at or
// above lo); like compactAVX2 it returns how many entries it read, kept,
// and counted above hi. Where neither the budget nor the stop can run
// out, and the indices count up from base, compactFree takes the slice;
// elsewhere the loop takes one entry at a time.
func compactKeysGo(idx []uint32, val []float32, src []float32, srcIdx []uint32, base, lo, hi uint32, ties, stop int) (read, n, above int) {
	if srcIdx == nil && ties >= len(src) && stop >= len(src) {
		n, above = compactFree(idx[:len(src)], val[:len(src)], src, base, lo, hi)
		return len(src), n, above
	}
	for i, v := range src {
		if n == stop {
			return i, n, above
		}
		switch m := math.Float32bits(v) &^ (1 << 31); {
		case m > hi:
			above++
		case m < lo || ties == 0:
			continue
		default:
			ties--
		}
		ix := base + uint32(i)
		if srcIdx != nil {
			ix = srcIdx[i]
		}
		idx[n], val[n] = ix, v
		n++
	}
	return len(src), n, above
}

// compactFree is compactKeysGo without a budget or a stop, branch-free
// like AccumRows's compaction: every entry is stored at the write cursor
// and only a kept one advances it, the counts computed from the bits —
// keys and bounds lie below 1<<31, so a difference of two has its top
// bit set exactly when it is negative. idx and val are as long as src.
// A function of its own, it keeps its few variables in registers on
// 386 too.
func compactFree(idx []uint32, val []float32, src []float32, base, lo, hi uint32) (n, above int) {
	for i, v := range src {
		m := math.Float32bits(v) &^ (1 << 31)
		idx[n], val[n] = base+uint32(i), v
		n += int((m-lo)>>31 ^ 1)     // m ≥ lo
		above += int((hi - m) >> 31) // m > hi
	}
	return n, above
}

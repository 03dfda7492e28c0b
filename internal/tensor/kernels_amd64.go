package tensor

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID.1:ECX has OSXSAVE and AVX
// (and POPCNT, which the compaction steps use and every AVX2 CPU has),
// XGETBV's XCR0 has the SSE and AVX state bits, and CPUID.7:EBX has
// AVX2.
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&popcnt == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// axpyListVec and axpyStrideVec run the AVX2 tile when it is selected
// and the row holds at least one full vector, and report whether they
// did.
func axpyListVec(c, b, av []float32, off []int) bool {
	if !useAVX2 || len(c) < vecLen {
		return false
	}
	axpyListAVX2(c, b, av, off)
	return true
}

func axpyStrideVec(c, a, b []float32, bs int) bool {
	if !useAVX2 || len(c) < vecLen {
		return false
	}
	axpyStrideAVX2(c, a, b, bs)
	return true
}

// outerVec runs AddOuterScaled on the AVX2 tile when it is selected
// and a row holds at least one full vector, and reports whether it did.
func outerVec(c, x, d []float32, a float32) bool {
	if !useAVX2 || len(d) < vecLen {
		return false
	}
	outerAVX2(c, x, d, a)
	return true
}

// compactPerm[m] lists the lanes set in the 8-bit mask m, lowest first:
// the VPERMD indices that move a step's kept lanes to its front. The
// lanes past the kept ones are don't-cares, left 0.
var compactPerm = func() (t [256][vecLen]uint8) {
	for m := range t {
		c := 0
		for l := range vecLen {
			if m>>l&1 != 0 {
				t[m][c] = uint8(l)
				c++
			}
		}
	}
	return t
}()

// Implemented in kernels_amd64.s.

// compactAVX2 runs CompactKeys's steps of eight entries while a whole
// step fits in src and neither the tie budget nor the stop runs out
// inside it, and returns how many entries it read (a multiple of
// eight), kept, and counted above hi. It takes lo ≤ 1<<31 and lo-1 ≤
// hi < 1<<31 (CompactKeys's clamps: every key above hi is kept), ties ≥
// 0, and srcIdx nil or as long as src.
//
//go:noescape
func compactAVX2(idx []uint32, val []float32, src []float32, srcIdx []uint32, base, lo, hi uint32, ties, stop int) (read, n, above int)

// accumPlaneAVX2 is AccumPlane on the AVX2 tile, for len(c) ≥ 1 and b
// holding len(g) rows of len(c) floats.
//
//go:noescape
func accumPlaneAVX2(c, g, b []float32, sum float32) float32

// maxPool2AVX2 takes windows 0 … done-1 of every row of MaxPool2's
// windows, done a positive multiple of eight and at most inW/2, with
// len(out) = len(arg) = len(in)/4.
//
//go:noescape
func maxPool2AVX2(out []float32, arg []int32, in []float32, inW, done int)

// maxPool2GradAVX2 writes the taps of windows 0 … done-1 of every row
// of MaxPool2Grad's windows, done as in maxPool2AVX2, with len(grad) =
// len(arg) = len(dx)/4.
//
//go:noescape
func maxPool2GradAVX2(dx, grad []float32, arg []int32, inW, done int)

// transposeAVX2 transposes the first cols&^7 columns of src into dst,
// whose rows start ds floats apart: rows ≥ 1 and cols ≥ 8.
//
//go:noescape
func transposeAVX2(dst []float32, ds int, src []float32, rows, cols int)

// reluAVX2 writes +0 into dst[i] where x[i] < below (an ordered
// compare) and g[i] elsewhere, for dst, x and g of one length.
//
//go:noescape
func reluAVX2(dst, x, g []float32, below float32)

// accumRowsAVX2 is AccumRows on the AVX2 tile with its multipliers
// compacted eight at a time, for len(c) ≥ 8, 1 ≤ np < 1<<28 rows of b,
// 0 ≤ as < 1<<28 and (np-1)·as < len(a).
//
//go:noescape
func accumRowsAVX2(c, a, b []float32, as, np int)

//go:noescape
func outerAVX2(c, x, d []float32, a float32)

// outersAVX2 adds a·(av[t]·d_t) into the row c for t = 0, 1, … in
// order, d_t being len(c) floats at dp[t], with outerAVX2's bits; c
// holds at least one full vector and every av[t] is non-zero.
//
//go:noescape
func outersAVX2(c, av []float32, dp []*float32, a float32)

//go:noescape
func axpyListAVX2(c, b, av []float32, off []int)

//go:noescape
func axpyStrideAVX2(c, a, b []float32, bs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

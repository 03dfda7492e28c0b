package tensor

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID.1:ECX has OSXSAVE and AVX,
// XGETBV's XCR0 has the SSE and AVX state bits, and CPUID.7:EBX has
// AVX2.
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
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

// Implemented in kernels_amd64.s.

//go:noescape
func axpyListAVX2(c, b, av []float32, off []int)

//go:noescape
func axpyStrideAVX2(c, a, b []float32, bs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

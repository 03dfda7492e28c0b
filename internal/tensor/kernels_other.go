//go:build !amd64

package tensor

// Off amd64 the Go loops of kernels.go are the only path.

func cpuHasAVX2() bool { return false }

func axpyListVec(c, b, av []float32, off []int) bool { return false }

func axpyStrideVec(c, a, b []float32, bs int) bool { return false }

func outerVec(c, x, d []float32, a float32) bool { return false }

func accumPlaneAVX2(c, g, b []float32, sum float32) float32 { return sum }

func maxPool2AVX2(out []float32, arg []int32, in []float32, inW, done int) {}

func maxPool2GradAVX2(dx, grad []float32, arg []int32, inW, done int) {}

func transposeAVX2(dst []float32, ds int, src []float32, rows, cols int) {}

func reluAVX2(dst, x, g []float32, below float32) {}

func accumRowsAVX2(c, a, b []float32, as, np int) {}

func outersAVX2(c, av []float32, dp []*float32, a float32) {}

func compactAVX2(idx []uint32, val []float32, src []float32, srcIdx []uint32, base, lo, hi uint32, ties, stop int) (read, n, above int) {
	return 0, 0, 0
}

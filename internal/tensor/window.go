package tensor

import "math"

// This file holds the passes of a CNN token that cost per pixel rather
// than per multiply-add: the convolution's parameter-gradient pass over
// one output plane, 2×2 max-pool forward and backward, the im2col panel
// transpose (which also writes MatMulBT's tiles out as columns of C),
// and ReLU both ways; and the AVX2 entry of AccumRows, whose multiplier
// compaction costs per multiplier. Like the row tile of kernels.go each
// has two implementations: the Go loops (the pool's in internal/minidnn,
// ReLU's and AccumRows's in kernels.go) are the portable path and the
// reference, and on amd64 CPUs with AVX2 the code in kernels_amd64.s
// takes eight lanes per instruction. The plane pass multiplies and then
// adds, each product rounded on its own; the pool compares and selects,
// ReLU compares and masks, and the transpose only moves data. A file of
// its own, after the matmul kernels, leaves their code where it was:
// the MLP workloads' speed moves with the alignment of their inner
// loops.

// AccumPlane adds Σ_p g[p] · b[p·n : (p+1)·n] into c, for n = len(c)
// and p over every index of g, and returns sum advanced by the same
// g[p]: a convolution's weight- and bias-gradient contributions from
// one output plane, whose im2col rows are b. Both take the non-zero
// g[p] alone — NaNs included, ±0 not — one add at a time in ascending
// p: the bits of AccumRows(c, g, 1, b) and of sumNonZero(sum, g).
//
// On the AVX2 tile it is one pass over g (accumPlaneAVX2): it finds the
// non-zero entries 32 at a time and adds g[p]·b[p] into c held in
// registers for the whole plane, a 32-float block of c at a time, and
// g[p] into sum on the way. A plane a max-pool routed its gradient
// through is at least three quarters zeros, so that pass costs what
// the adds cost, not what compacting a multiplier list would.
func AccumPlane(c, g, b []float32, sum float32) float32 {
	n := len(c)
	if len(b) < len(g)*n {
		panic("tensor: AccumPlane needs len(b) ≥ len(g)·len(c)")
	}
	if n == 0 {
		return sumNonZero(sum, g)
	}
	if useAVX2 {
		return accumPlaneAVX2(c, g, b, sum)
	}
	AccumRows(c, g, 1, b[:len(g)*n])
	return sumNonZero(sum, g)
}

// sumNonZero returns sum advanced by the non-zero elements of g, one
// add at a time in order. The elements are compacted first — an
// unconditional store, only the count depends on the value — because a
// post-ReLU gradient is zero or not at the toss of a coin, which a
// branch around the add would mispredict.
func sumNonZero(sum float32, g []float32) float32 {
	var nz [256]float32
	for len(g) > 0 {
		chunk := g[:min(len(g), len(nz))]
		g = g[len(chunk):]
		cnt := 0
		for _, v := range chunk {
			nz[cnt&(len(nz)-1)] = v
			cnt += nonZero(v)
		}
		for _, v := range nz[:cnt] {
			sum += v
		}
	}
	return sum
}

// MaxPool2 takes 2×2 max-pool windows (stride 2) on the AVX2 tile: in
// holds 2·len(out)/(inW/2) input rows of inW floats, an even count, and
// row r of windows reads input rows 2r and 2r+1. Window j of row r
// goes to out[r·ow+j] with the flat input index of its maximum in
// arg[r·ow+j], ow = inW/2. It takes windows 0 … done-1 of every row,
// eight at a time, and returns done: ow rounded down to a multiple of
// eight on AVX2, 0 elsewhere. The caller's loop takes the rest, and is
// the reference: the running maximum starts at the window's first tap
// and moves to a later tap, in (ki,kj) order, only where the tap is
// greater (an ordered compare: ties keep the earlier tap, and a NaN
// tap never wins), its index moving with it.
func MaxPool2(out []float32, arg []int32, in []float32, inW int) (done int) {
	ow := inW / 2
	done = ow &^ (vecLen - 1)
	if !useAVX2 || done == 0 {
		return 0
	}
	if inW%2 != 0 || len(out)%ow != 0 || len(arg) < len(out) || len(in) < 4*len(out) {
		panic("tensor: MaxPool2 needs an even row of input per window row pair and an index per window")
	}
	maxPool2AVX2(out, arg[:len(out)], in[:4*len(out)], inW, done)
	return done
}

// MaxPool2Grad routes MaxPool2's gradient on the AVX2 tile: window j of
// row r sends grad[r·ow+j] to its argmax arg[r·ow+j], and every one of
// the window's four taps in dx takes +0 + what it is sent (+0 when it
// is not the argmax) — the bits of clearing dx and adding each
// window's gradient at its argmax, since windows do not overlap. The
// shapes are MaxPool2's, with dx in place of in. It writes the taps of
// windows 0 … done-1 of every row and returns done, as MaxPool2 does;
// the caller clears and routes the rest.
func MaxPool2Grad(dx, grad []float32, arg []int32, inW int) (done int) {
	ow := inW / 2
	done = ow &^ (vecLen - 1)
	if !useAVX2 || done == 0 {
		return 0
	}
	if inW%2 != 0 || len(grad)%ow != 0 || len(arg) < len(grad) || len(dx) < 4*len(grad) {
		panic("tensor: MaxPool2Grad needs an even row of input per window row pair and an index per window")
	}
	maxPool2GradAVX2(dx[:4*len(grad)], grad, arg[:len(grad)], inW, done)
	return done
}

// Transpose writes the rows×cols matrix src into dst as cols×rows; src
// and dst must hold rows·cols floats each.
func Transpose(dst, src []float32, rows, cols int) {
	if rows < 0 || cols < 0 || len(dst) < rows*cols || len(src) < rows*cols {
		panic("tensor: Transpose needs rows·cols floats in src and in dst")
	}
	transposeTo(dst, rows, src, rows, cols)
}

// transposeTo writes the rows×cols matrix src into the cols×rows block
// of dst whose rows start ds floats apart: dst[j·ds+i] = src[i·cols+j],
// and no other element of dst. On the AVX2 tile the columns up to the
// last multiple of eight go as 8×8 blocks held in registers, the last
// rows%8 rows as one more block with the missing rows zero and stored
// through a lane mask; the last cols%8 columns, and every other build,
// go through the Go loop.
func transposeTo(dst []float32, ds int, src []float32, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	dst, src = dst[:(cols-1)*ds+rows], src[:rows*cols]
	c8 := 0
	if useAVX2 && cols >= vecLen {
		c8 = cols &^ (vecLen - 1)
		transposeAVX2(dst, ds, src, rows, cols)
	}
	if c8 < cols {
		transposeGo(dst, ds, src, rows, cols, c8)
	}
}

// transposeGo writes columns j0 … cols-1 of src into their places in
// dst.
func transposeGo(dst []float32, ds int, src []float32, rows, cols, j0 int) {
	i := 0
	for ; i+4 <= rows; i += 4 { // four source rows per pass: four adjacent stores
		s0, s1 := src[i*cols+j0:(i+1)*cols], src[(i+1)*cols+j0:(i+2)*cols]
		s2, s3 := src[(i+2)*cols+j0:(i+3)*cols], src[(i+3)*cols+j0:(i+4)*cols]
		for j, v := range s0 {
			d := dst[(j0+j)*ds+i:][:4:4]
			d[0], d[1], d[2], d[3] = v, s1[j], s2[j], s3[j]
		}
	}
	for ; i < rows; i++ {
		for j, v := range src[i*cols+j0 : (i+1)*cols] {
			dst[(j0+j)*ds+i] = v
		}
	}
}

// reluVec runs ReLU's mask on the AVX2 tile when it is selected
// (reluAVX2), and reports whether it did: dst[i] is +0 where x[i] <
// below and g[i] elsewhere. ReLUInto passes g = x and below = 0;
// ReLUGradInto passes the smallest positive denormal, below which lie
// exactly the x <= 0. dst, x and g have one length.
func reluVec(dst, x, g []float32, below float32) bool {
	if !useAVX2 {
		return false
	}
	reluAVX2(dst, x, g, below)
	return true
}

// accumVec runs AccumRows, for np rows of b, on the AVX2 tile
// (accumRowsAVX2) when it is selected and a row holds at least one full
// vector, and reports whether it did. The tile holds the row numbers
// and the gather's lane offsets (up to 7·as) in 32-bit lanes, so an as
// or an np of 1<<28 or more — or a negative as, which the Go loop
// refuses — stays on the Go loop. Too few multipliers for the rows
// panic on the slice bound, as they do on the Go loop's index.
func accumVec(c, a []float32, as int, b []float32, np int) bool {
	if !useAVX2 || len(c) < vecLen || uint(as|np) > math.MaxInt32/vecLen {
		return false
	}
	if np > 0 {
		accumRowsAVX2(c, a[:(np-1)*as+1], b, as, np)
	}
	return true
}

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// planeNaive is the naive convolution's parameter-gradient arithmetic
// over one output plane: each non-zero g[p] is added to sum, and its
// products with row p of b to c, one add at a time in ascending p.
func planeNaive(c, g, b []float32, sum float32) float32 {
	n := len(c)
	for p, v := range g {
		if v == 0 {
			continue
		}
		sum += v
		for j := range c {
			c[j] += float32(v * b[p*n+j])
		}
	}
	return sum
}

// planeGradient returns hw multipliers: with zeroShare 3 about three in
// four are ±0 — the gradient a 2×2 max-pool routes, at most one in four
// non-zero — with 1 about one in eight, and with 4 all of them. Every
// 64 entries a run of 20 zeros is cut in: whole eight-entry groups with
// no non-zero lane. The rest are normal numbers and finite specials,
// and `wild` of them ±Inf or NaN.
func planeGradient(rng *rand.Rand, hw, zeroShare, wild int) []float32 {
	g := specialTensor(rng, 0, hw+1).Data[:hw]
	for p := range g {
		if zeroShare == 4 || (zeroShare == 3 && rng.Intn(4) != 0) || (zeroShare == 1 && rng.Intn(8) == 0) || p%64 >= 44 {
			g[p] = []float32{0, negZero}[rng.Intn(2)]
		}
	}
	for ; wild > 0 && hw > 0; wild-- {
		g[rng.Intn(hw)] = nonFinite[rng.Intn(len(nonFinite))]
	}
	return g
}

// TestAccumPlane holds AccumPlane to the naive loop, c's bits and the
// sum's, on each kernel path: field widths around the vector, the
// 32-float block and several blocks (27 is the CNN's), planes with and
// without a tail of fewer than eight entries, multipliers dense,
// max-pool sparse and all zero, operands salted with ±0, denormals,
// ±Inf and NaN. c starts non-zero, part of it -0, which an added +0
// would turn into +0.
func TestAccumPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	eachPath(func(path string) {
		for _, n := range []int{1, 3, 7, 8, 9, 16, 24, 27, 31, 32, 33, 40, 64, 67, 100} {
			for _, hw := range []int{0, 1, 7, 8, 9, 64, 1029} {
				for _, zeros := range []int{1, 3, 4} {
					for _, wild := range []int{0, 3} {
						name := fmt.Sprintf("%s/n%d/hw%d/zeros%d/wild%d", path, n, hw, zeros, wild)
						g := planeGradient(rng, hw, zeros, wild)
						b := specialTensor(rng, wild, hw*n+1).Data[:hw*n]
						c := specialTensor(rng, 0, n)
						for j := range c.Data {
							if j%5 == 0 {
								c.Data[j] = negZero
							}
						}
						want := c.Clone()
						seed := []float32{negZero, 1.5, denorm}[rng.Intn(3)]
						wantSum := planeNaive(want.Data, g, b, seed)
						gotSum := AccumPlane(c.Data, g, b, seed)
						wantBits(t, name+" c", c, want)
						wantBits(t, name+" sum", FromSlice([]float32{gotSum}, 1), FromSlice([]float32{wantSum}, 1))
					}
				}
			}
		}
	})
}

// FuzzAccumPlane holds the AVX2 plane pass to the two Go steps it
// replaces, AccumRows(c, g, 1, b) and sumNonZero(sum, g). Fields are
// 1–67 floats wide — every tail of the vector, and two 32-float blocks
// and a tail — and c, g and b start at any float offset into their
// arrays, so no load or store is aligned on purpose; nothing past the
// end of c may be written. The values are drawn from ±0, denormals,
// ±Inf, NaN and normal numbers, or taken bit for bit from the fuzzer's
// bytes, and g has runs of zeros as long as zeroRun.
func FuzzAccumPlane(f *testing.F) {
	if !cpuHasAVX2() {
		f.Skip("the CPU has no AVX2 tile to check")
	}
	f.Add(uint8(27), uint8(1), uint8(3), uint16(1024), uint8(12), int64(1), []byte(nil))
	f.Add(uint8(67), uint8(5), uint8(0), uint16(37), uint8(0), int64(2), []byte(nil))
	f.Add(uint8(1), uint8(7), uint8(6), uint16(9), uint8(3), int64(3), []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0xff, 0, 0, 0, 0x80})
	f.Add(uint8(32), uint8(0), uint8(2), uint16(0), uint8(1), int64(4), []byte(nil))
	f.Add(uint8(33), uint8(2), uint8(7), uint16(200), uint8(90), int64(5), []byte(nil))
	special := []float32{0, negZero, denorm, -denorm, math.Float32frombits(0x007fffff), inf, -inf, nan}
	f.Fuzz(func(t *testing.T, width, cShift, gShift uint8, plane uint16, zeroRun uint8, seed int64, raw []byte) {
		n, hw := 1+int(width)%67, int(plane)%1100
		rng := rand.New(rand.NewSource(seed))
		value := func() float32 {
			if len(raw) >= 4 {
				v := math.Float32frombits(binary.LittleEndian.Uint32(raw))
				raw = raw[4:]
				return v
			}
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float32(rng.NormFloat64())
		}
		g := make([]float32, int(gShift)%8+hw)[int(gShift)%8:]
		for p := 0; p < hw; {
			if run := int(zeroRun); run > 0 && rng.Intn(3) == 0 {
				p += min(run, hw-p) // left zero
				continue
			}
			g[p] = value()
			p++
		}
		b := make([]float32, int(gShift)%5+hw*n)[int(gShift)%5:]
		for i := range b {
			b[i] = value()
		}
		c0 := make([]float32, n)
		for j := range c0 {
			c0[j] = value()
		}
		sum0 := value()
		want := append([]float32(nil), c0...)
		AccumRows(want, g, 1, b)
		wantSum := sumNonZero(sum0, g)

		// c is followed by guard floats that a store past its end would
		// overwrite.
		const guard = 0x7fc0dead
		buf := make([]float32, int(cShift)%8+n+32)[int(cShift)%8:]
		copy(buf, c0)
		for j := n; j < len(buf); j++ {
			buf[j] = math.Float32frombits(guard)
		}
		gotSum := accumPlaneAVX2(buf[:n:n], g, b, sum0)
		same := func(g, w float32) bool {
			return math.Float32bits(g) == math.Float32bits(w) || g != g && w != w
		}
		for j, w := range want {
			if !same(buf[j], w) {
				t.Fatalf("n=%d hw=%d: c[%d] = %#08x, want %#08x", n, hw, j, math.Float32bits(buf[j]), math.Float32bits(w))
			}
		}
		for j := n; j < len(buf); j++ {
			if math.Float32bits(buf[j]) != guard {
				t.Fatalf("n=%d hw=%d: wrote past the end of c, at c[%d]", n, hw, j)
			}
		}
		if !same(gotSum, wantSum) {
			t.Fatalf("n=%d hw=%d: sum %#08x, want %#08x", n, hw, math.Float32bits(gotSum), math.Float32bits(wantSum))
		}
	})
}

// TestTranspose holds Transpose to the index map dst[j·rows+i] =
// src[i·cols+j] on each kernel path, around the 8×8 block in both
// dimensions — 27 rows are the CNN's receptive field, 144 columns a
// panel's pixels — into a stale destination whose floats past the
// matrix must stay as they are; and transposeTo, MatMulBT's write of a
// Cᵀ tile, the same way into destination rows ds = rows+5 floats
// apart, whose five floats between rows must stay as they are too.
func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	eachPath(func(path string) {
		for _, rows := range []int{1, 3, 7, 8, 9, 16, 27, 33} {
			for _, cols := range []int{1, 7, 8, 9, 16, 144, 145} {
				src := specialTensor(rng, 3, rows, cols)
				for _, ds := range []int{rows, rows + 5} {
					dst := New(cols*ds + 2*vecLen)
					for k := range dst.Data {
						dst.Data[k] = nan
					}
					if ds == rows {
						Transpose(dst.Data, src.Data, rows, cols)
					} else {
						transposeTo(dst.Data, ds, src.Data, rows, cols)
					}
					for k, g := range dst.Data {
						j, i := k/ds, k%ds
						if j >= cols || i >= rows {
							if g == g {
								t.Fatalf("%s %dx%d ds=%d: wrote outside the matrix, at %d", path, rows, cols, ds, k)
							}
							continue
						}
						if w := src.Data[i*cols+j]; math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("%s %dx%d ds=%d: dst[%d][%d] = %#08x, want %#08x", path, rows, cols, ds, j, i, math.Float32bits(g), math.Float32bits(w))
						}
					}
				}
			}
		}
	})
}

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// outerTwoStep is AddOuterScaled's reference: the two steps it fuses,
// MatMulATInto of the one-row x and d, then AddScaled with a. Rows
// whose x[i] is zero keep c's −0 and signalling NaN entries, which the
// two steps would turn into +0 and a quiet NaN: AddOuterScaled skips
// those rows, and its accumulators hold neither value.
func outerTwoStep(c, x, d []float32, a float32) []float32 {
	want := append([]float32(nil), c...)
	if len(x) == 0 || len(d) == 0 {
		return want
	}
	g := MatMulATInto(nil, FromSlice(append([]float32(nil), x...), 1, len(x)), FromSlice(append([]float32(nil), d...), 1, len(d)))
	FromSlice(want, len(want)).AddScaled(FromSlice(g.Data, len(g.Data)), a)
	for i, xi := range x {
		if xi != 0 {
			continue
		}
		for k := i * len(d); k < (i+1)*len(d); k++ {
			if v := c[k]; math.Float32bits(v) == 0x80000000 || isSignalling(v) {
				want[k] = v
			}
		}
	}
	return want
}

func isSignalling(v float32) bool { return v != v && math.Float32bits(v)&0x00400000 == 0 }

// outerBits fails unless got and want are the same bit patterns. Where
// both run on the AVX2 tile (rows of a vector or more), that includes
// the NaN payloads: the tile orders each operation's operands as the two
// steps do, so where two NaNs meet the same one survives. On the Go
// loops which of two NaNs survives is the compiler's choice (see
// wantBits), so there a NaN must only sit where the reference has one.
func outerBits(t *testing.T, what string, got, want []float32, n int) {
	t.Helper()
	payloads := useAVX2 && n >= vecLen
	for k, w := range want {
		g := got[k]
		if math.Float32bits(g) != math.Float32bits(w) && (payloads || !(g != g && w != w)) {
			t.Fatalf("%s: c[%d] = %v (%#08x), want %v (%#08x)", what, k, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// outerSpecials salt x, d and c: signed zeros, denormals, the largest
// denormal, ±Inf, quiet NaNs of both signs with payloads, and a
// signalling NaN.
var outerSpecials = []float32{
	0, negZero, denorm, -denorm, math.Float32frombits(0x007fffff), inf, -inf,
	math.Float32frombits(0x7fc00123), math.Float32frombits(0xffc00456), math.Float32frombits(0x7f800001),
}

// outerOperand is n floats, about a quarter of them special.
func outerOperand(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = outerSpecials[rng.Intn(len(outerSpecials))]
		} else {
			s[i] = float32(rng.NormFloat64())
		}
	}
	return s
}

// TestAddOuterScaled holds AddOuterScaled to the two steps it fuses, bit
// for bit (NaN payloads on the tile; see outerBits), on each kernel path: widths 1–1100 (every
// tail of the 8-lane vector and both sides of MatMulATInto's 1024-float
// tile), one to five rows, some of them zero rows of either sign, x, d
// and c salted with outerSpecials, and scales of a share, 1, −0.5, 0,
// −0 and a denormal.
func TestAddOuterScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	scales := []float32{1.0 / 16, 1, -0.5, 0, negZero, denorm}
	eachPath(func(path string) {
		for n := 1; n <= 1100; n++ {
			m := 1 + rng.Intn(5)
			x, d := outerOperand(rng, m), outerOperand(rng, n)
			if rng.Intn(2) == 0 {
				x[rng.Intn(m)] = []float32{0, negZero}[rng.Intn(2)]
			}
			c := outerOperand(rng, m*n)
			a := scales[n%len(scales)]
			want := outerTwoStep(c, x, d, a)
			AddOuterScaled(c, x, d, a)
			outerBits(t, fmt.Sprintf("%s/n=%d m=%d a=%v", path, n, m, a), c, want, n)
		}
		// Every row zero leaves c alone; no rows, or no columns, is a no-op.
		c := []float32{1, negZero, 3, 4}
		AddOuterScaled(c, []float32{0, negZero}, []float32{nan, inf}, 1)
		outerBits(t, path+"/zero rows", c, []float32{1, negZero, 3, 4}, 2)
		AddOuterScaled(nil, nil, []float32{1, 2}, 1)
		AddOuterScaled(nil, []float32{1, 2}, nil, 1)
	})
	defer func() {
		if recover() == nil {
			t.Error("expected a panic for len(c) != len(x)·len(d)")
		}
	}()
	AddOuterScaled(make([]float32, 5), make([]float32, 2), make([]float32, 3), 1)
}

// FuzzAddOuterScaled is TestAddOuterScaled with the shape, the scale and
// the values from the fuzzer: widths 0–1100, zero to nine rows, values
// from outerSpecials and normal numbers or bit for bit from its bytes,
// on each kernel path; c is followed by guard floats no store may touch.
func FuzzAddOuterScaled(f *testing.F) {
	f.Add(uint16(17), uint8(3), int64(1), uint32(0x3d800000), []byte(nil))
	f.Add(uint16(1024), uint8(2), int64(2), uint32(0x3f800000), []byte{0, 0, 0, 0x80, 1, 0, 0xc0, 0x7f})
	f.Add(uint16(7), uint8(9), int64(3), uint32(0x80000000), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff})
	f.Add(uint16(1033), uint8(1), int64(4), uint32(1), []byte(nil))
	f.Fuzz(func(t *testing.T, width uint16, rows uint8, seed int64, scale uint32, raw []byte) {
		a := math.Float32frombits(scale)
		if math.IsInf(float64(a), 0) || a != a {
			a = 1 // AddOuterScaled's skip holds for a finite scale
		}
		n, m := int(width)%1101, int(rows)%10
		rng := rand.New(rand.NewSource(seed))
		value := func() float32 {
			if len(raw) >= 4 {
				v := math.Float32frombits(binary.LittleEndian.Uint32(raw))
				raw = raw[4:]
				return v
			}
			if rng.Intn(4) == 0 {
				return outerSpecials[rng.Intn(len(outerSpecials))]
			}
			return float32(rng.NormFloat64())
		}
		fill := func(k int) []float32 {
			s := make([]float32, k)
			for i := range s {
				s[i] = value()
			}
			return s
		}
		x, d, c0 := fill(m), fill(n), fill(m*n)
		const guard = 0x7fc0dead
		eachPath(func(path string) {
			want := outerTwoStep(c0, x, d, a)
			buf := make([]float32, m*n+vecLen)
			copy(buf, c0)
			for k := m * n; k < len(buf); k++ {
				buf[k] = math.Float32frombits(guard)
			}
			AddOuterScaled(buf[:m*n:m*n], x, d, a)
			outerBits(t, fmt.Sprintf("%s/n=%d m=%d", path, n, m), buf[:m*n], want, n)
			for k := m * n; k < len(buf); k++ {
				if math.Float32bits(buf[k]) != guard {
					t.Fatalf("%s: wrote past the end of c, at %d", path, k)
				}
			}
		})
	})
}

// TestAddOutersScaled holds the band fold to the per-token fold — k
// calls of AddOuterScaled over the whole sum, in term order — bit for
// bit, NaN payloads included (both run the same row kernel), on each
// kernel path: widths around the 8-lane vector, the AVX2 row's group of
// four vectors and below a vector, odd row counts, zero to five terms
// and more than the AVX2 row takes at once, x rows of ±0, every operand
// salted with outerSpecials (NaNs and ±Inf among them), and the sum
// folded in bands of one row, of a height that does not divide the
// rows, and whole — each band's edges at another row of x. A band
// leaves every row outside it alone, and nothing past the end of c is
// written.
func TestAddOutersScaled(t *testing.T) {
	const guard = 0x7fc0dead
	rng := rand.New(rand.NewSource(89))
	eachPath(func(path string) {
		for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 33, 100} {
			for _, m := range []int{1, 3, 5, 8, 13} {
				for _, k := range []int{0, 1, 2, 3, 5, outersChunk + 3} {
					xs, ds := make([][]float32, k), make([][]float32, k)
					for t := range xs {
						xs[t], ds[t] = outerOperand(rng, m), outerOperand(rng, n)
						xs[t][rng.Intn(m)] = []float32{0, negZero}[rng.Intn(2)]
					}
					c0 := outerOperand(rng, m*n)
					a := []float32{1.0 / 16, 1, -0.5, denorm}[rng.Intn(4)]
					want := append([]float32(nil), c0...)
					for t := range xs {
						AddOuterScaled(want, xs[t], ds[t], a)
					}
					for _, h := range []int{1, 2, m} {
						buf := append(append([]float32(nil), c0...), make([]float32, vecLen)...)
						for j := m * n; j < len(buf); j++ {
							buf[j] = math.Float32frombits(guard)
						}
						c := buf[: m*n : m*n]
						for lo := 0; lo < m; lo += h {
							hi := min(lo+h, m)
							AddOutersScaled(c[lo*n:hi*n], lo, xs, ds, a)
						}
						for j := m * n; j < len(buf); j++ {
							if math.Float32bits(buf[j]) != guard {
								t.Fatalf("%s/n=%d m=%d k=%d band=%d: wrote past the end of c, at %d", path, n, m, k, h, j)
							}
						}
						for j, w := range want {
							if math.Float32bits(c[j]) != math.Float32bits(w) {
								t.Fatalf("%s/n=%d m=%d k=%d band=%d: c[%d] = %#08x, want %#08x", path, n, m, k, h, j, math.Float32bits(c[j]), math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	})
	for _, bad := range []func(){
		func() { AddOutersScaled(make([]float32, 6), 0, [][]float32{{1, 2}}, nil, 1) },
		func() { AddOutersScaled(make([]float32, 5), 0, [][]float32{{1, 2}}, [][]float32{{1, 2, 3}}, 1) },
		func() {
			AddOutersScaled(make([]float32, 6), 0, [][]float32{{1, 2}, {1, 2}}, [][]float32{{1, 2, 3}, {1, 2}}, 1)
		},
		func() { AddOutersScaled(make([]float32, 6), 1, [][]float32{{1, 2}}, [][]float32{{1, 2, 3}}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected a panic for factors that do not fit the sum")
				}
			}()
			bad()
		}()
	}
}

// BenchmarkAddOuterScaled is the fold of the rank-1 factors of one
// train-comm report's first weight gradient: a 1024×1024 sum updated
// from 1024 + 1024 floats, about half of x zero (a ReLU-free input
// layer has none; the second layer's ReLU output has half).
func BenchmarkAddOuterScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c, x, d := New(1<<20).Randn(rng, 1), New(1024).Randn(rng, 1), New(1024).Randn(rng, 1)
	b.SetBytes(2 * 4 << 20) // read and write c
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddOuterScaled(c.Data, x.Data, d.Data, 1.0/16)
	}
}

// BenchmarkAddOutersScaled is the barrier fold of one train-comm
// iteration's first weight gradient: 16 tokens' rank-1 factors summed
// into a 1024×1024 accumulator. per-token adds each term over the whole
// sum, as a fold at every report's arrival did; band-loop folds every
// term into one band of four rows (the barrier's tile) before moving to
// the next, each term by AddOuterScaled's row kernel; rank-k is
// AddOutersScaled on the same bands, which holds a row's vectors in
// registers across its terms.
func BenchmarkAddOutersScaled(b *testing.B) {
	const k, m, n, rows = 16, 1024, 1024, 4
	rng := rand.New(rand.NewSource(6))
	c := New(m * n)
	xs, ds := make([][]float32, k), make([][]float32, k)
	for t := range xs {
		xs[t], ds[t] = New(m).Randn(rng, 1).Data, New(n).Randn(rng, 1).Data
	}
	for _, v := range []struct {
		name string
		fold func()
	}{
		{"per-token", func() {
			for t := range xs {
				AddOuterScaled(c.Data, xs[t], ds[t], 1.0/16)
			}
		}},
		{"band-loop", func() {
			for lo := 0; lo < m; lo += rows {
				for t := range xs {
					AddOuterScaled(c.Data[lo*n:(lo+rows)*n], xs[t][lo:lo+rows], ds[t], 1.0/16)
				}
			}
		}},
		{"rank-k", func() {
			for lo := 0; lo < m; lo += rows {
				AddOutersScaled(c.Data[lo*n:(lo+rows)*n], lo, xs, ds, 1.0/16)
			}
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(k * 2 * 4 * m * n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.fold()
			}
		})
	}
}

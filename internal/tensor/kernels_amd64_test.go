package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzAxpyTile holds the AVX2 tile, both entry points, to the scalar
// loop it replaces: c[j] += a·b[j], one multiplier at a time in order,
// each product rounded before the add. Rows are 0–67 floats — every
// tail of the 8-wide vector, and several vectors — and c and b start at
// any float offset into their arrays, so no load or store is aligned on
// purpose; nothing past the end of c may be written. The values are
// drawn from ±0, denormals, ±Inf, NaN and normal numbers, or taken bit
// for bit from the fuzzer's bytes.
func FuzzAxpyTile(f *testing.F) {
	if !cpuHasAVX2() {
		f.Skip("the CPU has no AVX2 tile to check")
	}
	f.Add(uint8(27), uint8(1), uint8(3), uint8(7), int64(1), []byte(nil))
	f.Add(uint8(64), uint8(0), uint8(0), uint8(4), int64(2), []byte(nil))
	f.Add(uint8(8), uint8(7), uint8(5), uint8(9), int64(3), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff})
	f.Add(uint8(0), uint8(2), uint8(1), uint8(5), int64(4), []byte(nil))
	f.Add(uint8(67), uint8(3), uint8(6), uint8(1), int64(5), []byte{1, 0, 0, 0, 0, 0, 0, 0x80})
	special := []float32{0, negZero, denorm, -denorm, math.Float32frombits(0x007fffff), inf, -inf, nan}
	f.Fuzz(func(t *testing.T, n, cShift, bShift, rows uint8, seed int64, raw []byte) {
		nc, rs := int(n)%68, int(rows)%10
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
		fill := func(s []float32) []float32 {
			for i := range s {
				s[i] = value()
			}
			return s
		}
		stride := nc + rng.Intn(3) // rows may be packed or have gaps
		c0 := fill(make([]float32, nc))
		b := fill(make([]float32, int(bShift)%8+rs*stride+nc))[int(bShift)%8:]
		a := fill(make([]float32, rs))
		// The list entry point takes an ascending offset list; the stride
		// one, rows stride floats apart.
		off := make([]int, rs)
		for t := range off {
			off[t] = t * stride
		}
		want := append([]float32(nil), c0...)
		for t, av := range a {
			for j := range want {
				want[j] += float32(av * b[off[t]+j])
			}
		}
		check := func(what string, got []float32) {
			t.Helper()
			for j, w := range want {
				g := got[j]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("%s n=%d rows=%d: c[%d] = %#08x, want %#08x", what, nc, rs, j, math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
		// c is followed by guard floats that a store past its end would
		// overwrite.
		const guard = 0x7fc0dead
		buf := make([]float32, int(cShift)%8+nc+vecLen)[int(cShift)%8:]
		run := func(what string, tile func(c []float32)) {
			t.Helper()
			copy(buf, c0)
			for j := nc; j < len(buf); j++ {
				buf[j] = math.Float32frombits(guard)
			}
			tile(buf[:nc:nc])
			check(what, buf)
			for j := nc; j < len(buf); j++ {
				if math.Float32bits(buf[j]) != guard {
					t.Fatalf("%s n=%d: wrote past the end of c, at c[%d]", what, nc, j)
				}
			}
		}
		run("list", func(c []float32) { axpyListAVX2(c, b, a, off) })
		run("stride", func(c []float32) { axpyStrideAVX2(c, a, b, stride) })
	})
}

// FuzzAccumRows holds the AVX2 AccumRows (accumRowsAVX2, the compaction
// of eight multipliers a step feeding the row tile) to accumList, bit
// for bit and NaN payloads included: 0–79 rows — whole steps, every
// tail of one, and the 1–3 multipliers left for oneRow — multipliers 1–9
// floats apart (1 is a plain load, more a gather), rows of c 8–67
// floats wide, and the arrays of a, b and c starting at any float
// offset; nothing past the end of c may be written. The values are
// drawn from ±0, denormals, ±Inf, NaNs and normal numbers, or taken bit
// for bit from the fuzzer's bytes, and the multipliers have runs of
// zeros as long as zeroRun.
func FuzzAccumRows(f *testing.F) {
	if !cpuHasAVX2() {
		f.Skip("the CPU has no AVX2 tile to check")
	}
	f.Add(uint8(64), uint8(16), uint8(1), uint8(0), uint8(3), uint8(8), int64(1), []byte(nil))
	f.Add(uint8(56), uint8(16), uint8(8), uint8(5), uint8(1), uint8(0), int64(2), []byte(nil))
	f.Add(uint8(27), uint8(75), uint8(3), uint8(2), uint8(7), uint8(16), int64(3), []byte{0, 0, 0xc0, 0x7f, 1, 0, 0xc0, 0xff, 0, 0, 0, 0x80})
	f.Add(uint8(9), uint8(3), uint8(2), uint8(7), uint8(2), uint8(0), int64(4), []byte(nil))
	f.Add(uint8(13), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), int64(5), []byte(nil))
	special := []float32{0, negZero, denorm, -denorm, math.Float32frombits(0x007fffff), inf, -inf, nan,
		math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001)}
	f.Fuzz(func(t *testing.T, width, rows, stride, shift, cShift, zeroRun uint8, seed int64, raw []byte) {
		n, np, as := 8+int(width)%60, int(rows)%80, 1+int(stride)%9
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
		a := make([]float32, int(shift)%8+max(0, (np-1)*as+1))[int(shift)%8:]
		for p := 0; p < np; {
			if run := int(zeroRun); run > 0 && rng.Intn(3) == 0 {
				p += min(run, np-p) // left zero
				continue
			}
			a[p*as] = value()
			p++
		}
		b := make([]float32, int(shift)%5+np*n)[int(shift)%5:]
		for i := range b {
			b[i] = value()
		}
		c0 := make([]float32, n)
		for j := range c0 {
			c0[j] = value()
		}
		want := append([]float32(nil), c0...)
		accumList(want, a, as, b)

		const guard = 0x7fc0dead
		buf := make([]float32, int(cShift)%8+n+vecLen)[int(cShift)%8:]
		copy(buf, c0)
		for j := n; j < len(buf); j++ {
			buf[j] = math.Float32frombits(guard)
		}
		if np > 0 {
			accumRowsAVX2(buf[:n:n], a, b, as, np)
		}
		for j, w := range want {
			if g := buf[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("n=%d rows=%d as=%d: c[%d] = %#08x, want %#08x", n, np, as, j, math.Float32bits(g), math.Float32bits(w))
			}
		}
		for j := n; j < len(buf); j++ {
			if math.Float32bits(buf[j]) != guard {
				t.Fatalf("n=%d rows=%d as=%d: wrote past the end of c, at c[%d]", n, np, as, j)
			}
		}
	})
}

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compactCase is one CompactKeys call: the arguments, and where the
// slices sit in their arrays.
type compactCase struct {
	src            []float32
	srcIdx         []uint32 // nil: indices base+i
	base, lo, hi   uint32
	ties, stop     int
	inPlace        bool // idx and val are srcIdx and src
	srcOff, dstOff int  // entries of array in front of src and of idx/val
	description    string
}

// compactSpec is what CompactKeys promises, written out one entry at a
// time: keep a key ≥ lo outright when it is above hi, and as a tie while
// the budget lasts; stop once stop entries are kept.
func compactSpec(c compactCase) (idx []uint32, val []float32, above int) {
	ties := c.ties
	if ties < 0 {
		ties = len(c.src)
	}
	for i, v := range c.src {
		if len(idx) == c.stop {
			break
		}
		m := math.Float32bits(v) &^ (1 << 31)
		switch {
		case m < c.lo:
			continue
		case m > c.hi:
			above++
		case ties == 0:
			continue
		default:
			ties--
		}
		ix := c.base + uint32(i)
		if c.srcIdx != nil {
			ix = c.srcIdx[i]
		}
		idx, val = append(idx, ix), append(val, v)
	}
	return idx, val, above
}

// canary fills the floats past a destination region; a store past the
// region shows as a changed canary.
const canary = 0x7fc0dead

// checkCompact runs c on the path selected now and holds it to the spec:
// the same counts, the kept entries bit for bit and in order, and every
// float after the region the store contract allows untouched.
func checkCompact(t *testing.T, c compactCase) {
	t.Helper()
	wantIdx, wantVal, wantAbove := compactSpec(c)
	n := len(c.src)
	region := min(n, max(0, c.stop)+7)
	// Arrays with room for the offset in front and a canary vector behind.
	src := make([]float32, c.srcOff+n+vecLen)
	srcIdx := make([]uint32, c.srcOff+n+vecLen)
	for j := range src {
		src[j], srcIdx[j] = math.Float32frombits(canary), canary
	}
	copy(src[c.srcOff:], c.src)
	var sIdx []uint32
	if c.srcIdx != nil {
		copy(srcIdx[c.srcOff:], c.srcIdx)
		sIdx = srcIdx[c.srcOff : c.srcOff+n]
	}
	s := src[c.srcOff : c.srcOff+n]
	var idx []uint32
	var val []float32
	if c.inPlace {
		if sIdx == nil {
			sIdx = srcIdx[c.srcOff : c.srcOff+n]
			for i := range sIdx {
				sIdx[i] = c.base + uint32(i)
			}
		}
		idx, val = sIdx, s
		region = n
	} else {
		dIdx := make([]uint32, c.dstOff+region+vecLen)
		dVal := make([]float32, c.dstOff+region+vecLen)
		for j := range dIdx {
			dIdx[j], dVal[j] = canary, math.Float32frombits(canary)
		}
		idx, val = dIdx[c.dstOff:c.dstOff+region], dVal[c.dstOff:c.dstOff+region]
	}
	gotN, gotAbove := CompactKeys(idx, val, s, sIdx, c.base, c.lo, c.hi, c.ties, c.stop)
	if gotN != len(wantIdx) || gotAbove != wantAbove {
		t.Fatalf("%s %s: kept %d, %d above; want %d, %d", KernelPath(), c.description, gotN, gotAbove, len(wantIdx), wantAbove)
	}
	for j := range wantIdx {
		if idx[j] != wantIdx[j] || math.Float32bits(val[j]) != math.Float32bits(wantVal[j]) {
			t.Fatalf("%s %s: entry %d is (%d, %#08x), want (%d, %#08x)", KernelPath(), c.description,
				j, idx[j], math.Float32bits(val[j]), wantIdx[j], math.Float32bits(wantVal[j]))
		}
	}
	for j := region; j < region+vecLen; j++ {
		if idx[:cap(idx)][j] != canary || math.Float32bits(val[:cap(val)][j]) != canary {
			t.Fatalf("%s %s: stored past the region of %d entries, at %d", KernelPath(), c.description, region, j)
		}
	}
}

// compactSpecials are the keys at the edges: both zeros, the least and
// largest subnormals, ±Inf, NaN payloads at both ends of the range and
// of both signs, and ±1.
var compactSpecials = []uint32{
	0, 0x80000000, 1, 0x80000001, 0x007fffff, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00001, 0x7f800001, 0xffffffff, 0x7fffffff, 0x3f800000, 0xbf800000,
}

// randomCompactCase draws a case from the fuzzer's choices: n entries,
// the array offsets, and each mode taken modulo its number of options.
func randomCompactCase(n, srcOff, dstOff, loMode, hiMode, tieMode, stopMode, flags uint8, seed int64, raw []byte) compactCase {
	rng := rand.New(rand.NewSource(seed))
	c := compactCase{srcOff: int(srcOff) % vecLen, dstOff: int(dstOff) % vecLen, inPlace: flags&1 != 0}
	c.src = make([]float32, int(n)%68)
	for i := range c.src {
		switch {
		case len(raw) >= 4:
			c.src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
		case rng.Intn(3) == 0:
			c.src[i] = math.Float32frombits(compactSpecials[rng.Intn(len(compactSpecials))])
		default:
			// Few distinct magnitudes, so that runs of ties turn up.
			c.src[i] = float32(rng.Intn(7)-3) * 0.25
		}
	}
	key := func() uint32 {
		if len(c.src) == 0 {
			return 0
		}
		return math.Float32bits(c.src[rng.Intn(len(c.src))]) &^ (1 << 31)
	}
	switch loMode % 3 {
	case 1:
		c.lo = key()
	case 2:
		c.lo = 0x7f800000
	}
	switch hiMode % 3 {
	case 0: // the transport's bound: the key itself, or every NaN above +Inf
		c.hi = c.lo
		if c.lo == 0x7f800000 {
			c.hi = math.MaxUint32
		}
	case 1:
		c.hi = key()
	case 2:
		c.hi = math.MaxUint32
	}
	switch tieMode % 3 {
	case 0:
		c.ties = 0
	case 1: // about half of the ties there are
		for _, v := range c.src {
			if m := math.Float32bits(v) &^ (1 << 31); m >= c.lo && m <= c.hi {
				c.ties++
			}
		}
		c.ties = rng.Intn(c.ties/2 + 1)
	case 2:
		c.ties = -1
	}
	switch stopMode % 3 {
	case 0:
		c.stop = len(c.src)
	case 1:
		c.stop = rng.Intn(len(c.src) + 1)
	case 2:
		c.stop = len(c.src) + 9
	}
	if flags&2 != 0 {
		c.srcIdx = make([]uint32, len(c.src))
		at := uint32(rng.Intn(1000))
		for i := range c.srcIdx {
			at += uint32(1 + rng.Intn(40))
			c.srcIdx[i] = at
		}
	} else {
		c.base = uint32(rng.Intn(1 << 20))
	}
	c.description = describeCompact(c)
	return c
}

func describeCompact(c compactCase) string {
	return fmt.Sprintf("n=%d lo=%#x hi=%#x ties=%d stop=%d in-place=%t indexed=%t",
		len(c.src), c.lo, c.hi, c.ties, c.stop, c.inPlace, c.srcIdx != nil)
}

// TestCompactKeys holds both paths to the spec on a few thousand drawn
// cases — every length to 67, unaligned arrays, compaction in place and
// into fresh slices, every bound and budget mode — and on the long runs
// the cases cannot reach: a tie budget that runs out in the middle of a
// vector step, and a stop that does.
func TestCompactKeys(t *testing.T) {
	eachPath(func(string) {
		rng := rand.New(rand.NewSource(61))
		for range 3000 {
			var m [8]uint8
			for j := range m {
				m[j] = uint8(rng.Intn(256))
			}
			checkCompact(t, randomCompactCase(m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], rng.Int63(), nil))
		}
		run := make([]float32, 1000)
		for i := range run {
			run[i] = float32(1 + i%3) // keys of 1, 2 and 3 in turn
		}
		for _, c := range []compactCase{
			{src: run, lo: 0x40000000, hi: 0x40000000, ties: 101, stop: 1000},     // ties of 2 run out mid-step
			{src: run, lo: 0x3f800000, hi: math.MaxUint32, ties: 333, stop: 1000}, // every kept key a tie
			{src: run, lo: 0, hi: 0x40000000, ties: -1, stop: 413},                // the stop falls mid-step
			{src: run, lo: 0, hi: 0x3f800000, ties: 0, stop: 1000, inPlace: true},
			{src: run, lo: 0x40400001, hi: 0x40400001, ties: -1, stop: 1000}, // nothing reaches lo
		} {
			c.description = describeCompact(c)
			checkCompact(t, c)
		}
	})
}

// FuzzCompactKeys holds CompactKeys to the spec on both paths — the
// AVX2 steps and the Go loop — over 0–67 entries at any offset into
// their arrays, in place or not, with indices from base or an array.
// The entries are ±0, subnormals, ±Inf, NaNs with payloads at both ends,
// tie runs, or bit patterns from the fuzzer's bytes; lo is 0, a key
// present in the slice, or +Inf's; the tie budget is 0, part of the ties
// there are, or unlimited. Nothing past the region the store contract
// allows may be written.
func FuzzCompactKeys(f *testing.F) {
	f.Add(uint8(27), uint8(1), uint8(3), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), int64(1), []byte(nil))
	f.Add(uint8(64), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), uint8(1), uint8(1), int64(2), []byte(nil))
	f.Add(uint8(8), uint8(7), uint8(5), uint8(2), uint8(2), uint8(0), uint8(2), uint8(2), int64(3), []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0xff})
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), int64(4), []byte(nil))
	f.Add(uint8(67), uint8(3), uint8(6), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), int64(5), []byte(nil))
	f.Fuzz(func(t *testing.T, n, srcOff, dstOff, loMode, hiMode, tieMode, stopMode, flags uint8, seed int64, raw []byte) {
		c := randomCompactCase(n, srcOff, dstOff, loMode, hiMode, tieMode, stopMode, flags, seed, raw)
		eachPath(func(string) { checkCompact(t, c) })
	})
}

// BenchmarkCompactKeys is the kernel at the top-k encoder's two passes
// over train-comm's largest gradient: the candidate pass over 1M
// Gaussian values at the bound an eighth reach, without budget or stop,
// in the encoder's 65536-entry blocks; and the survivor pass over the
// candidates, in place, at the key of the first candidate reaching 1.6
// (about 11 % of the slice do) with a tie budget of one, stopping at the
// k-th survivor, the last one above the key.
func BenchmarkCompactKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	src := make([]float32, 1<<20)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	// |v| ≥ 1.534 for about an eighth of a standard normal.
	lb := math.Float32bits(1.534)
	idx, val := make([]uint32, len(src)), make([]float32, len(src))
	candidates := func() int {
		n := 0
		for base := 0; base < len(src); base += 1 << 16 {
			c, _ := CompactKeys(idx[n:], val[n:], src[base:base+1<<16], nil, uint32(base), lb, lb, -1, 1<<16)
			n += c
		}
		return n
	}
	eachPath(func(path string) {
		b.Run(path+"/candidates", func(b *testing.B) {
			b.SetBytes(4 * int64(len(src)))
			for range b.N {
				candidates()
			}
		})
		nc := candidates()
		ci, cv := append([]uint32(nil), idx[:nc]...), append([]float32(nil), val[:nc]...)
		var thr uint32
		for _, v := range cv {
			if m := math.Float32bits(v) &^ (1 << 31); m >= math.Float32bits(1.6) {
				thr = m
				break
			}
		}
		k := 1
		for _, v := range cv {
			if math.Float32bits(v)&^(1<<31) > thr {
				k++
			}
		}
		b.Run(path+"/survivors", func(b *testing.B) {
			b.SetBytes(4 * int64(nc))
			for range b.N {
				copy(idx, ci)
				copy(val, cv)
				CompactKeys(idx[:nc], val[:nc], val[:nc], idx[:nc], 0, thr, thr, 1, k)
			}
		})
	})
}

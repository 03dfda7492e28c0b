package transport

// Gradient compression for the report path. A report's Grads section —
// the megabytes of float32 a token round-trip actually moves — can be
// encoded with a lossy codec negotiated at registration, while every
// other field (and the Params broadcast, which must stay bit-exact for
// the bit-identical-to-Sequential guarantee) keeps the exact encoding.
//
// The codec travels in the frame header: frames whose gradient codec is
// CompressExact are emitted as version-1 frames, byte-identical to what
// the codec shipped before compression existed, so golden frames, the
// chaos suites and cross-version peers are untouched. A non-exact codec
// switches the frame to version 2, which carries 4 extra header bytes
// (codec id + 3 reserved zeros).
//
// Grads-section layout per codec (count/lengths as uvarints, floats
// little-endian, replacing the exact section only — Params keep the
// exact layout):
//
//	fp16:  count; per slice: len, then 2·len bytes of IEEE 754 half
//	       floats (round-to-nearest-even)
//	int8:  count; per slice: len, 4B scale (float32 = maxAbs/127),
//	       then len bytes of signed int8 quantized round-half-away
//	topk:  count; per slice: full len, k (the ⌈len/8⌉ largest |g|,
//	       ties to the lowest index), k index deltas (strictly
//	       ascending: idx₀ = δ₀, idxᵢ₊₁ = idxᵢ + 1 + δᵢ₊₁), then
//	       4·k bytes of the kept values; everything else stands for 0
//
// Top-k encoding costs one pass over a slice plus work in its survivors:
// keys sampled at fixed pseudo-random positions place a lower bound a
// little under the k-th largest magnitude, and one pass of
// tensor.CompactKeys (eight entries a step on AVX2) copies the entries
// reaching it into pooled scratch. The exact radix select counts those
// candidates once and then only the bucket its first digit picks; a
// second CompactKeys, in place, keeps the survivors; and the emit writes
// their index deltas, then their values in one copy. The frame is the
// one a full sort selects, for every input; the sample decides how much
// work is done, never what is sent.
//
// Decoding is as strict as the exact path: a scan pass validates every
// length (k ≤ len ≤ 16·k for top-k, totals capped at MaxFrameBytes
// worth of floats) and every top-k index before anything is allocated,
// so a hostile count can never cause an oversized allocation. fp16 and
// int8 sections then expand into a pooled arena; a top-k section is
// never expanded: it decodes to a TopKSection viewing the frame, and
// the coordinator adds its kept entries straight into its accumulator.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"fela/internal/tensor"
)

// Compression identifies the codec a frame's Grads section is encoded
// with. The zero value is the exact (lossless) encoding and the only
// one the bit-identical guarantee holds under.
type Compression uint8

const (
	// CompressExact is raw float32 — the default, bit-identical.
	CompressExact Compression = iota
	// CompressFP16 halves gradient bytes via IEEE 754 half precision.
	CompressFP16
	// CompressInt8 quantizes each slice linearly to int8 with a
	// per-slice float32 scale (≈4× smaller).
	CompressInt8
	// CompressTopK keeps the largest-magnitude eighth of each slice
	// with delta-coded indices (≈5–6× smaller); dropped entries decode
	// as zero.
	CompressTopK

	compressCount
)

var compressionNames = [compressCount]string{
	CompressExact: "exact",
	CompressFP16:  "fp16",
	CompressInt8:  "int8",
	CompressTopK:  "topk",
}

// Valid reports whether c names a known codec.
func (c Compression) Valid() bool { return c < compressCount }

// String names the codec ("exact", "fp16", "int8", "topk").
func (c Compression) String() string {
	if c.Valid() {
		return compressionNames[c]
	}
	return fmt.Sprintf("compression(%d)", uint8(c))
}

// ParseCompression resolves a codec name from the -compress flags.
// Empty means exact.
func ParseCompression(name string) (Compression, error) {
	if name == "" {
		return CompressExact, nil
	}
	for i, n := range compressionNames {
		if name == n {
			return Compression(i), nil
		}
	}
	return CompressExact, fmt.Errorf("transport: unknown compression %q (valid: exact, fp16, int8, topk)", name)
}

// SetGradCodec selects the codec the message's Grads section is encoded
// with on the binary wire. It also rides otherwise-gradient-free
// handshake frames (register, join, assign) as the codec negotiation
// field, on TCP and in-process conns alike.
func (m *Message) SetGradCodec(c Compression) { m.gradCodec = c }

// GradCodec returns the message's gradient codec (CompressExact for
// messages decoded from version-1 frames or built by hand).
func (m *Message) GradCodec() Compression { return m.gradCodec }

// ---- fp16 ----

// f32tof16 converts to IEEE 754 binary16 with round-to-nearest-even.
// Overflow rounds to ±Inf, NaN stays NaN, subnormal halves are exact.
func f32tof16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint32(b>>16) & 0x8000
	exp := b & 0x7f800000
	coef := b & 0x007fffff
	if exp == 0x7f800000 { // Inf or NaN
		var nan uint32
		if coef != 0 {
			nan = 0x0200
		}
		return uint16(sign | 0x7c00 | nan | coef>>13)
	}
	halfExp := int32(exp>>23) - 127 + 15
	if halfExp >= 0x1f {
		return uint16(sign | 0x7c00) // overflow → Inf
	}
	if halfExp <= 0 { // subnormal half (or zero)
		if 14-halfExp > 24 {
			return uint16(sign) // too small even for a subnormal: ±0
		}
		c := coef | 0x00800000
		shift := uint32(14 - halfExp)
		halfCoef := c >> shift
		round := uint32(1) << (shift - 1)
		if c&round != 0 && c&(3*round-1) != 0 {
			halfCoef++
		}
		return uint16(sign | halfCoef)
	}
	halfCoef := coef >> 13
	out := sign | uint32(halfExp)<<10 | halfCoef
	const round = uint32(0x1000)
	if coef&round != 0 && coef&(3*round-1) != 0 {
		out++ // may carry into the exponent — correct rounding to Inf
	}
	return uint16(out)
}

// f16tof32 widens an IEEE 754 binary16 value; exact for every input.
func f16tof32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	coef := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf or NaN
		if coef == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000 | coef<<13)
	case exp == 0: // zero or subnormal
		if coef == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(113) // 127 - 15 + 1
		for coef&0x400 == 0 {
			coef <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (coef&0x3ff)<<13)
	}
	return math.Float32frombits(sign | (exp+112)<<23 | coef<<13)
}

// ---- int8 ----

// int8Scale returns the per-slice quantization step: maxAbs/127, so the
// full int8 range covers the slice. NaN/Inf poison the scale exactly as
// they would poison training — the codec does not try to outguess them:
// an Inf makes it Inf and a NaN makes it NaN, and either way the whole
// slice decodes as NaN (0·Inf or 0·NaN, quantInt8 giving 0 for every
// entry).
func int8Scale(s []float32) float32 {
	// The sign-cleared bit patterns order as |v| does, and every NaN's
	// lies above +Inf's, so the largest pattern is maxAbs, or a NaN if the
	// slice holds one.
	var maxAbs uint32
	for _, v := range s {
		maxAbs = max(maxAbs, math.Float32bits(v)&^(1<<31))
	}
	return math.Float32frombits(maxAbs) / 127
}

// quantInt8 rounds v/scale half away from zero, clamped to ±127. A
// non-finite quotient (a zero scale, a NaN scale, an Inf over an Inf
// scale) gives 0 explicitly: Go leaves int8 of a NaN to the
// implementation.
func quantInt8(v, scale float32) int8 {
	q := math.Round(float64(v) / float64(scale))
	switch {
	case q >= -127 && q <= 127:
		return int8(q)
	case math.IsNaN(q) || math.IsInf(q, 0):
		return 0
	case q > 0:
		return 127
	}
	return -127
}

// ---- top-k ----

// topKCount is how many entries the top-k codec keeps for a slice of n:
// the largest eighth, at least one.
func topKCount(n int) int {
	if n == 0 {
		return 0
	}
	return (n + 7) / 8
}

// topkMagLimit caps the decoded-length inflation a top-k frame may
// claim: full length ≤ 16·k. The encoder's k = ⌈n/8⌉ always satisfies
// it; a hostile frame declaring a huge dense length against a tiny k
// fails before any allocation.
const topkMagLimit = 16

// The top-k selection orders values by the integer key
// min(bits(v) &^ signbit, topkInf): the sign-cleared bit pattern is
// monotone in |v| (denormals included, ±0 both 0), and clamping at +Inf's
// pattern makes every NaN tie with Inf as the largest — a pathological
// gradient is always kept and k is always met (a frame that silently
// dropped NaNs would decode to a different k than it declared). The hot
// loops work on the unclamped magnitude and account for the clamp where
// they compare (threshold, CompactKeys in compact and appendTopK).
const topkInf = 0x7f800000

func topkMag(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// topkHi is the largest unclamped magnitude whose key is key: key itself,
// or, for the clamp, every NaN pattern above it.
func topkHi(key uint32) uint32 {
	if key == topkInf {
		return math.MaxUint32
	}
	return key
}

// topkCount is one radix level: it counts into hist[0] the magnitudes of
// s by their width-bit digit at shift. Four entries in a row go to four
// histograms, added up at the end, so that a run of magnitudes in one
// bucket is not one chain of increments each waiting on the last one's
// store.
func topkCount(hist *[4][1 << 11]uint32, s []float32, shift, width uint) {
	// The &31 and the second mask change no value; they tell the compiler
	// the shift and the index are in range.
	shift, mask := shift&31, uint32(1)<<width-1
	digit := func(v float32) uint32 { return topkMag(v) >> shift & mask & (1<<11 - 1) }
	for ; len(s) >= 4; s = s[4:] {
		hist[0][digit(s[0])]++
		hist[1][digit(s[1])]++
		hist[2][digit(s[2])]++
		hist[3][digit(s[3])]++
	}
	for _, v := range s {
		hist[0][digit(v)]++
	}
	for d := range hist[0] {
		hist[0][d] += hist[1][d] + hist[2][d] + hist[3][d]
	}
}

// threshold finds the k-th largest key of s (1 ≤ k ≤ len(s)) without
// sorting: an MSB-first radix select over the 31 key bits, 11, 10 and 10
// at a time, one counting pass a level into histograms on the stack. The
// widest digit goes first, over all of s; the entries under the prefix
// chosen so far are then gathered into the bucket scratch, and the next
// level counts that bucket alone. Time is O(len(s)) whatever the values
// are, and after the first level it is O(bucket).
//
// The survivors are every entry with key > thr plus the first ties
// entries, by index, with key == thr. When a level's bucket is taken
// whole the search stops there and thr is the bucket's lower bound, which
// selects the same entries.
func (sc *topkScratch) threshold(s []float32, k int) (thr uint32, ties int) {
	var hist [4][1 << 11]uint32
	prefix, need := uint32(0), uint32(k)
	shift := uint(31)
	widths := [...]uint{11, 10, 10}
	for level, width := range widths {
		shift -= width
		hist = [4][1 << 11]uint32{}
		topkCount(&hist, s, shift, width)
		d := uint32(1)<<width - 1
		for hist[0][d] < need {
			need -= hist[0][d]
			d--
		}
		prefix = prefix<<width | d
		if prefix<<shift >= topkInf {
			// Only the first level gets here, its walk ending among the
			// Inf and NaN patterns: the k-th largest key is the clamp
			// itself, and everything at or above it ties.
			return topkInf, k
		}
		if hist[0][d] == need {
			break
		}
		if level+1 < len(widths) {
			s = sc.gather(s, prefix, shift, int(hist[0][d]))
		}
	}
	return prefix << shift, int(need)
}

// gather copies the n entries of s whose key lies under prefix — whose
// bits from shift up equal it — into the bucket scratch, in order, and
// returns them; s may be the bucket itself. The store is unconditional
// and only the count depends on the key.
func (sc *topkScratch) gather(s []float32, prefix uint32, shift uint, n int) []float32 {
	if len(sc.bucket) <= n {
		sc.bucket = make([]float32, n+1)
	}
	// Under the prefix is a key in [lo, lo + 1<<shift).
	b, c, lo := sc.bucket, 0, prefix<<shift
	for _, v := range s {
		b[c] = v
		if topkMag(v)-lo < 1<<shift {
			c++
		}
	}
	return b[:c]
}

// ---- encoding ----

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// topkScratch is one encoder's working set: the sampled keys, the
// candidates' indices and values, index-ordered, and the select's bucket.
// Pooled, so a report encodes without allocating once a scratch has grown
// to its largest candidate set.
type topkScratch struct {
	sample [topkSamples]float32
	idx    []uint32
	val    []float32
	bucket []float32
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

const (
	// topkSamples is how many keys lowerBound reads.
	topkSamples = 4096
	// topkSampleCutoff is the longest slice compacted whole without a
	// sample, which would read an eighth of it or more.
	topkSampleCutoff = 8 * topkSamples
	// topkBlock is how many entries compact reads between checks that the
	// scratch has room for all of them: a train-comm gradient is 16
	// CompactKeys calls.
	topkBlock = 1 << 16
)

// lowerBound guesses a key that a few more than k of s's keys reach, so
// that compacting the entries at or above it keeps every survivor and
// little else. It reads topkSamples keys at xorshift positions — a fixed
// stride would alias with the rows of a rank-1 outer-product gradient —
// and returns the key of rank ⌈E + 4√E⌉ + 1 among them, E = topkSamples·k/n
// being the survivors the sample holds on average: four standard
// deviations of slack. It returns 0, which every key reaches, for a slice
// of at most topkSampleCutoff entries or a rank past the sample. The bound
// only decides how much work the selection does, never what it selects.
func (sc *topkScratch) lowerBound(s []float32, k int) uint32 {
	n := len(s)
	if n <= topkSampleCutoff {
		return 0
	}
	e := float64(topkSamples) * float64(k) / float64(n)
	r := int(math.Ceil(e+4*math.Sqrt(e))) + 1
	if r > topkSamples {
		return 0
	}
	x := uint32(0x9e3779b9)
	for i := range sc.sample {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		sc.sample[i] = s[uint64(x)*uint64(n)>>32]
	}
	// At or below the r-th largest sampled key (threshold may stop at its
	// bucket's lower bound): a looser bound, never a wrong one.
	lb, _ := sc.threshold(sc.sample[:], r)
	return lb
}

// compact copies the index and value of every entry of s whose key
// reaches lb into sc.idx and sc.val, in index order, and returns how many
// it copied and how many of those lie strictly above lb: tensor.CompactKeys
// a block at a time, the scratch first grown to hold the whole block.
// Keys are compared unclamped: lb never exceeds topkInf, so a NaN reaches
// it exactly when its clamped key does, and none counts as above topkInf.
func (sc *topkScratch) compact(s []float32, lb uint32) (n, above int) {
	hi := topkHi(lb)
	for base := 0; base < len(s); base += topkBlock {
		blk := s[base:min(base+topkBlock, len(s))]
		if len(sc.idx) < n+len(blk) {
			sc.grow(n, n+len(blk), len(s))
		}
		c, a := tensor.CompactKeys(sc.idx[n:], sc.val[n:], blk, nil, uint32(base), lb, hi, -1, len(blk))
		n, above = n+c, above+a
	}
	return n, above
}

// grow reallocates the scratch to hold at least need candidates of a
// slice of n, keeping the first keep. It starts at a quarter of the
// slice, which holds the ≈15 % a sampled bound lets through, and doubles
// from there, never past the whole slice.
func (sc *topkScratch) grow(keep, need, n int) {
	c := min(max(need, 2*len(sc.idx), n/4), n)
	idx, val := make([]uint32, c), make([]float32, c)
	copy(idx, sc.idx[:keep])
	copy(val, sc.val[:keep])
	sc.idx, sc.val = idx, val
}

// appendTopK appends s's top-k entries (k = topKCount(len(s)) ≥ 1): the
// index deltas, then the values. It selects among candidates, the entries
// whose key reaches lowerBound's guess, compacted from s in one pass;
// should fewer than k reach it, the guess drops to 0 and every entry is a
// candidate. Either way every entry with a key at or above the k-th
// largest is a candidate, and candidates keep their index order, so
// selecting among them — ties to the lowest index — picks exactly what
// selecting over s would: the sample moves the work, never the frame.
func appendTopK(dst []byte, s []float32, k int) []byte {
	sc := topkPool.Get().(*topkScratch)
	defer topkPool.Put(sc)
	lb := sc.lowerBound(s, k)
	nc, above := sc.compact(s, lb)
	if nc < k {
		lb = 0
		nc, above = sc.compact(s, lb)
	}
	idx, val := sc.idx[:nc], sc.val[:nc]

	// With fewer than k keys above the bound, the k-th largest is the
	// bound itself — an all-equal or mostly-zero slice needs no select.
	thr, ties := lb, k-above
	if above >= k {
		thr, ties = sc.threshold(val, k)
	}
	// The survivors, compacted in place: the candidates above thr (above
	// hi, unclamped) and the first ties from thr to hi, the pass ending
	// with the k-th.
	tensor.CompactKeys(idx, val, val, idx, 0, thr, topkHi(thr), ties, k)
	// No index delta reaches len(s), so each takes at most iw bytes.
	iw := uvarintLen(uint64(len(s) - 1))
	off := len(dst)
	dst = slices.Grow(dst, k*(iw+4))[:off+k*iw]
	b, at, prev := dst[off:], 0, -1
	for _, i := range idx[:k] {
		d := uint64(int(i) - prev - 1)
		prev = int(i)
		if d < 0x80 { // one survivor in eight: nearly every delta
			b[at] = byte(d)
			at++
		} else {
			at += binary.PutUvarint(b[at:], d)
		}
	}
	return appendFloats(dst[:off+at], val[:k])
}

// appendCompressedSlices encodes ss as one grads section under a
// non-exact codec (the exact section is appendSlices).
func appendCompressedSlices(dst []byte, ss [][]float32, codec Compression) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		switch codec {
		case CompressFP16:
			off := len(dst)
			dst = slices.Grow(dst, 2*len(s))[:off+2*len(s)]
			buf := dst[off:]
			for i, v := range s {
				binary.LittleEndian.PutUint16(buf[2*i:], f32tof16(v))
			}
		case CompressInt8:
			scale := int8Scale(s)
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
			off := len(dst)
			dst = slices.Grow(dst, len(s))[:off+len(s)]
			buf := dst[off:]
			for i, v := range s {
				buf[i] = byte(quantInt8(v, scale))
			}
		case CompressTopK:
			k := topKCount(len(s))
			dst = binary.AppendUvarint(dst, uint64(k))
			if k == 0 {
				continue
			}
			dst = appendTopK(dst, s, k)
		}
	}
	return dst
}

// ---- decoding ----

// scanCompressedSlices walks the grads section ahead of the real decode
// and returns the total dense float count it stands for, validating
// every length against the bytes present so the arena can be sized
// before anything is allocated. For top-k it also decodes every index
// delta, by the scatter's one-byte fast path, and checks each index
// against the dense length, so a section that passes the scan can be
// folded without another check. The reader copy is discarded; the
// caller's reader is untouched.
func (r *PayloadReader) scanCompressedSlices(codec Compression) (int, error) {
	s := *r // shallow copy: same payload, independent offset
	total := int64(0)
	cnt := s.Uvarint()
	if cnt > uint64(s.remaining()) {
		s.Fail("%d compressed slices declared with %d bytes remaining", cnt, s.remaining())
	}
	for i := uint64(0); i < cnt && s.err == nil; i++ {
		ln := s.Uvarint()
		if s.err != nil {
			break
		}
		switch codec {
		case CompressFP16:
			if ln > uint64(s.remaining())/2 {
				s.Fail("fp16 slice of %d floats with %d bytes remaining", ln, s.remaining())
			}
			s.Bytes(int(ln) * 2)
		case CompressInt8:
			if ln > uint64(s.remaining()) {
				s.Fail("int8 slice of %d floats with %d bytes remaining", ln, s.remaining())
			}
			s.Bytes(4 + int(ln))
		case CompressTopK:
			k := s.Uvarint()
			if s.err != nil {
				break
			}
			switch {
			case k > ln:
				s.Fail("top-k count %d exceeds dense length %d", k, ln)
			case ln > topkMagLimit*k && ln > 0:
				s.Fail("top-k dense length %d too large for count %d", ln, k)
			case k > uint64(s.remaining()):
				s.Fail("top-k count %d with %d bytes remaining", k, s.remaining())
			}
			// next is the lowest index the next entry may take.
			next := uint64(0)
			for j := uint64(0); j < k && s.err == nil; j++ {
				var d uint64
				if s.off < len(s.data) && s.data[s.off] < 0x80 {
					d = uint64(s.data[s.off])
					s.off++
				} else if d = s.Uvarint(); s.err != nil {
					break
				}
				if d >= ln-next {
					s.Fail("top-k index %d out of range %d", next+d, ln)
					break
				}
				next += d + 1
			}
			s.Bytes(int(k) * 4)
		default:
			s.Fail("unknown gradient codec %d", codec)
		}
		total += int64(ln)
		if total > MaxFrameBytes/4 {
			s.Fail("compressed grads expand to %d floats (limit %d)", total, MaxFrameBytes/4)
		}
	}
	if s.err != nil {
		return 0, &CodecError{s.err}
	}
	return int(total), nil
}

// compressedSlicesInto decodes one fp16 or int8 grads section into dense
// float32 slices carved from the arena, which scanCompressedSlices has
// already sized and whose checks it has already made.
func (r *PayloadReader) compressedSlicesInto(arena *[]float32, codec Compression) [][]float32 {
	cnt := r.Uvarint()
	if r.err != nil || cnt == 0 {
		return nil
	}
	out := make([][]float32, cnt)
	for i := range out {
		ln := int(r.Uvarint())
		if r.err != nil {
			return nil
		}
		start := len(*arena)
		*arena = (*arena)[:start+ln]
		dst := (*arena)[start : start+ln : start+ln]
		switch codec {
		case CompressFP16:
			src := r.Bytes(ln * 2)
			if r.err != nil {
				return nil
			}
			for j := range dst {
				dst[j] = f16tof32(binary.LittleEndian.Uint16(src[2*j:]))
			}
		case CompressInt8:
			scale := math.Float32frombits(r.u32())
			src := r.Bytes(ln)
			if r.err != nil {
				return nil
			}
			for j := range dst {
				dst[j] = float32(int8(src[j])) * scale
			}
		}
		out[i] = dst
	}
	return out
}

// TopKSection is one top-k gradient slice as it arrived: its dense
// length, and the wire bytes of its k index deltas and k kept values,
// views of the received frame. A report decoded under CompressTopK
// carries these instead of dense Grads (Message.TopK); they are valid
// until the message's Release, and the decode has already checked every
// index against the dense length.
type TopKSection struct {
	n        int
	idx, val []byte
}

// Len is the dense length the section stands for.
func (s *TopKSection) Len() int { return s.n }

// AddScaledTo adds a·v into dst at each kept index, in index order, by
// the same dst[i] += a*v that tensor.AddScaled does. dst must hold Len
// floats. Every other entry of the dense section is +0, and so is a·(+0)
// for a finite a > 0. An accumulator cleared to +0 and only added to
// never holds −0 (a sum is −0 only when both terms are) nor a
// signalling NaN, and x + (+0) is then x, bit for bit, NaN included; so
// adding only the kept entries gives the bits adding the expanded
// section gives.
func (s *TopKSection) AddScaledTo(dst []float32, a float32) {
	dst = dst[:s.n]
	idx, val := s.idx, s.val
	at, next := 0, 0
	for j := 0; j < len(val); j += 4 {
		d := int(idx[at])
		if d < 0x80 { // one survivor in eight: nearly every delta
			at++
		} else {
			u, n := binary.Uvarint(idx[at:])
			d, at = int(u), at+n
		}
		i := next + d
		dst[i] += a * math.Float32frombits(binary.LittleEndian.Uint32(val[j:]))
		next = i + 1
	}
}

// topKSections decodes one top-k grads section, which scanCompressedSlices
// has validated, into sections that view the payload: it finds where
// each index run ends and allocates nothing per float.
func (r *PayloadReader) topKSections() []TopKSection {
	cnt := r.Uvarint()
	if r.err != nil || cnt == 0 {
		return nil
	}
	out := make([]TopKSection, cnt)
	for i := range out {
		s := &out[i]
		s.n = int(r.Uvarint())
		k := int(r.Uvarint())
		start := r.off
		for n := 0; n < k; r.off++ {
			if r.data[r.off] < 0x80 { // each delta ends in one such byte
				n++
			}
		}
		s.idx = r.data[start:r.off]
		s.val = r.Bytes(4 * k)
		if r.err != nil {
			return nil
		}
	}
	return out
}

// appendTopKSections re-emits decoded top-k sections byte for byte.
func appendTopKSections(dst []byte, ss []TopKSection) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(s.n))
		dst = binary.AppendUvarint(dst, uint64(len(s.val)/4))
		dst = append(dst, s.idx...)
		dst = append(dst, s.val...)
	}
	return dst
}

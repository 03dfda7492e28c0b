package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"fela/internal/tensor"
)

// The reference the radix selection is held to: the codec's original
// sort-based selection and varint-at-a-time encoder, kept verbatim minus
// their pools. Every top-k frame must match refTopKSection byte for byte.

// keyMag is the selection magnitude: |v|, with NaN treated as the
// largest.
func keyMag(v float32) float32 {
	if v != v {
		return float32(math.Inf(1))
	}
	return float32(math.Abs(float64(v)))
}

// refTopKSelect returns the indices of the k largest-magnitude entries
// of s in ascending index order, ties to the lowest index, by sorting a
// magnitude copy.
func refTopKSelect(s []float32, k int) []int {
	if k == 0 {
		return nil
	}
	mag := make([]float32, len(s))
	for i, v := range s {
		mag[i] = keyMag(v)
	}
	slices.Sort(mag)
	thr := mag[len(mag)-k]
	atThr := k
	for _, m := range mag[len(mag)-k:] {
		if m > thr {
			atThr--
		}
	}
	idx := make([]int, 0, k)
	for i, v := range s {
		m := keyMag(v)
		if m > thr {
			idx = append(idx, i)
		} else if m == thr && atThr > 0 {
			idx = append(idx, i)
			atThr--
		}
	}
	return idx
}

// refTopKSection is the one-slice top-k grads section built from
// refTopKSelect.
func refTopKSection(s []float32) []byte {
	k := topKCount(len(s))
	dst := binary.AppendUvarint(nil, 1)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	dst = binary.AppendUvarint(dst, uint64(k))
	if k == 0 {
		return dst
	}
	idx := refTopKSelect(s, k)
	prev := -1
	for _, i := range idx {
		dst = binary.AppendUvarint(dst, uint64(i-prev-1))
		prev = i
	}
	for _, i := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(s[i]))
	}
	return dst
}

// topKIndices runs the real encoder on one slice and reads the kept
// indices back out of the section's delta-varints.
func topKIndices(t testing.TB, s []float32) []int {
	t.Helper()
	r := &PayloadReader{data: appendCompressedSlices(nil, [][]float32{s}, CompressTopK)}
	if cnt, ln := r.Uvarint(), r.Uvarint(); cnt != 1 || ln != uint64(len(s)) {
		t.Fatalf("section header cnt=%d len=%d, want 1, %d", cnt, ln, len(s))
	}
	idx := make([]int, r.Uvarint())
	prev := -1
	for j := range idx {
		prev += 1 + int(r.Uvarint())
		idx[j] = prev
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return idx
}

// refTopKDecode is the dense top-k decoder the codec had before reports
// were folded from their sparse sections, kept as the reference the
// sections are held to: a scan that validates lengths and walks the
// index deltas, then a scatter into zeroed dense slices that checks each
// index as it goes. It decodes one grads section at r and leaves r past
// it, or fails with r.err set.
func refTopKDecode(r *PayloadReader) [][]float32 {
	s := *r
	cnt := s.Uvarint()
	if cnt > uint64(s.remaining()) {
		s.Fail("%d compressed slices declared with %d bytes remaining", cnt, s.remaining())
	}
	total := int64(0)
	for i := uint64(0); i < cnt && s.err == nil; i++ {
		ln := s.Uvarint()
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
		for j := uint64(0); j < k && s.err == nil; j++ {
			s.Uvarint()
		}
		s.Bytes(int(k) * 4)
		if total += int64(ln); total > MaxFrameBytes/4 {
			s.Fail("compressed grads expand to %d floats (limit %d)", total, MaxFrameBytes/4)
		}
	}
	if s.err != nil {
		r.err = s.err
		return nil
	}
	cnt = r.Uvarint()
	if cnt == 0 {
		return nil
	}
	out := make([][]float32, cnt)
	for i := range out {
		ln := int(r.Uvarint())
		k := int(r.Uvarint())
		dst := make([]float32, ln)
		// Two cursors: vr runs ahead to the values, which start after the
		// k-th byte without a continuation bit, and r decodes each index
		// as its value is scattered.
		vr := *r
		for n := 0; n < k && vr.off < len(vr.data); vr.off++ {
			if vr.data[vr.off] < 0x80 {
				n++
			}
		}
		src := vr.Bytes(k * 4)
		if vr.err != nil {
			r.err = vr.err
			return nil
		}
		prev := -1
		for j := 0; j < k; j++ {
			d := r.Uvarint()
			next := prev + 1 + int(d)
			if r.err == nil && (d > uint64(ln) || next >= ln) {
				r.Fail("top-k index %d out of range %d", next, ln)
			}
			if r.err != nil {
				return nil
			}
			dst[next] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
			prev = next
		}
		r.off = vr.off
		out[i] = dst
	}
	return out
}

// expandTopK reads a section's entries back out of its bytes, on its
// own, into dense floats: kept values bit for bit, +0 elsewhere.
func expandTopK(s TopKSection) []float32 {
	out := make([]float32, s.Len())
	r := &PayloadReader{data: s.idx}
	at := -1
	for j := range len(s.val) / 4 {
		at += 1 + int(r.Uvarint())
		out[at] = math.Float32frombits(binary.LittleEndian.Uint32(s.val[4*j:]))
	}
	return out
}

// decodeTopKSection runs the codec's top-k decode — the scan, then the
// sections — on one grads section at r.
func decodeTopKSection(r *PayloadReader) ([]TopKSection, error) {
	if _, err := r.scanCompressedSlices(CompressTopK); err != nil {
		return nil, err
	}
	return r.topKSections(), r.err
}

// sameBits reports whether two sets of dense slices are equal bit for
// bit.
func sameBits(a, b [][]float32) bool {
	return slices.EqualFunc(a, b, func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(u, v float32) bool { return math.Float32bits(u) == math.Float32bits(v) })
	})
}

// checkTopKAgainstReference holds the encoder to the reference on one
// slice — same frame bytes, hence same index list — and the decoder to
// the survivors: kept entries bit-exact, everything else +0, as the
// reference decoder has them.
func checkTopKAgainstReference(t testing.TB, s []float32) {
	t.Helper()
	want := refTopKSection(s)
	// A dirty prefix with no spare capacity: the section must append, and
	// grow, correctly.
	got := appendCompressedSlices([]byte{0xa5}, [][]float32{s}, CompressTopK)
	if got[0] != 0xa5 || !bytes.Equal(got[1:], want) {
		t.Fatalf("n=%d: top-k section differs from the sort-based reference (%d vs %d bytes)", len(s), len(got)-1, len(want))
	}
	r := &PayloadReader{data: want}
	out, err := decodeTopKSection(r)
	if err != nil || r.remaining() != 0 || len(out) != 1 || out[0].Len() != len(s) {
		t.Fatalf("n=%d: decode err=%v, %d bytes left, %d slices", len(s), err, r.remaining(), len(out))
	}
	dense := expandTopK(out[0])
	wantBits := make([]uint32, len(s))
	for _, ix := range refTopKSelect(s, topKCount(len(s))) {
		wantBits[ix] = math.Float32bits(s[ix])
	}
	for i, v := range dense {
		if math.Float32bits(v) != wantBits[i] {
			t.Fatalf("n=%d: decoded[%d] = %#08x, want %#08x", len(s), i, math.Float32bits(v), wantBits[i])
		}
	}
	if ref := refTopKDecode(&PayloadReader{data: want}); !sameBits(ref, [][]float32{dense}) {
		t.Fatalf("n=%d: sections expand to other floats than the reference decoder's", len(s))
	}
}

// nanMix is entry i of a slice whose every every-th entry cycles through
// Inf and NaN patterns of both signs and both ends of the payload range,
// the rest alternating between the largest finite magnitude and 1.
func nanMix(i, every int) float32 {
	specials := [...]uint32{0x7f800001, 0xff800000, 0x7fffffff, 0x7f800000, 0xffc00000, 0x7f8fffff, 0xff900000}
	if i%every == 0 {
		return math.Float32frombits(specials[i/every%len(specials)])
	}
	return math.Float32frombits([...]uint32{0xff7fffff, 0x3f800000, 0x7f7fffff}[i%3])
}

// fill returns n floats produced by f.
func fill(n int, f func(i int) float32) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = f(i)
	}
	return s
}

// tile repeats s (non-empty) until it is longer than topkSampleCutoff, so
// that the encoder compacts it against a sampled bound.
func tile(s []float32) []float32 {
	out := make([]float32, 0, (topkSampleCutoff/len(s)+1)*len(s))
	for len(out) <= topkSampleCutoff {
		out = append(out, s...)
	}
	return out
}

// boundCounts runs the encoder's first two steps on s: the sampled bound,
// and how many keys reach it and how many lie strictly above it.
func boundCounts(s []float32) (lb uint32, reach, above int) {
	sc := new(topkScratch)
	lb = sc.lowerBound(s, topKCount(len(s)))
	reach, above = sc.compact(s, lb)
	return lb, reach, above
}

// TestTopKMatchesSortReference: the radix selection against the
// sort-based one on the inputs chosen to break it — every radix level's
// early exit and full descent, ties on both sides of the threshold,
// special values, and lengths around the k = ⌈n/8⌉ steps. Every case
// short enough to be compacted whole runs again tiled past the sampling
// cutoff, where the same values meet a sampled bound; the longer ones
// meet it already.
func TestTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	negNaN := math.Float32frombits(0xffc00001)
	cases := map[string][]float32{
		"empty":      {},
		"all-equal":  fill(1000, func(int) float32 { return -0.5 }),
		"all-zero":   make([]float32, 1000),
		"mixed-zero": fill(999, func(i int) float32 { return []float32{0, negZero}[i%2] }),
		"all-nan":    fill(100, func(i int) float32 { return []float32{nan, negNaN}[i%2] }),
		"denormals": fill(5000, func(int) float32 {
			return math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31)
		}),
		// NaN and ±Inf share the top key and tie by index; more of them
		// than k, then fewer.
		"inf-nan-many": fill(64, func(i int) float32 { return []float32{inf, nan, -inf, negNaN, 1}[i%5] }),
		"inf-nan-few":  fill(64, func(i int) float32 { return []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, nan, 3, 2, 1, -inf, 0, 1}[i%16] }),
		// Every NaN pattern selects as +Inf, wherever its payload puts it
		// among the first level's top eight buckets: fewer specials than k
		// = 8 over a tie run at the largest finite value, exactly k, and
		// more than k (the first k by index win, Inf or NaN alike).
		"nan-payloads-few":   fill(64, func(i int) float32 { return nanMix(i, 21) }),
		"nan-payloads-exact": fill(64, func(i int) float32 { return nanMix(i, 8) }),
		"nan-payloads-many":  fill(64, func(i int) float32 { return nanMix(i, 3) }),
		// A tenth NaN and a tenth -Inf: more specials than k but fewer
		// NaNs, so that tiled, the sampled bound is the clamp itself.
		"inf-nan-at-bound": fill(1000, func(i int) float32 { return []float32{nan, 1, 2, 1, 2, -inf, 1, 2, 1, 2}[i%10] }),
		// k = 125 of 1000: the 100 entries of -3 are above, and the
		// 25 ties at 1 that fill k end at index 27, lane 3 of an 8-entry
		// step — the step in which the survivor pass's tie budget runs
		// out.
		"tie-budget-mid-step": fill(1000, func(i int) float32 {
			if i%10 == 0 {
				return -3
			}
			return 1
		}),
		// k = 13 of 100; 5 entries above a run of 40 equal ones that
		// therefore straddles the threshold.
		"tie-run-straddles": fill(100, func(i int) float32 {
			switch {
			case i%20 == 7:
				return -3
			case i >= 30 && i < 70:
				return 0.25
			}
			return 0.125
		}),
		// Keys that share the upper radix digits, so the threshold is only
		// found at the last level, or the middle one.
		"low-digit-only": fill(4096, func(int) float32 { return math.Float32frombits(0x3f800000 | uint32(rng.Intn(1<<10))) }),
		"mid-digit-only": fill(4096, func(int) float32 { return math.Float32frombits(0x3f800000 | uint32(rng.Intn(1<<10))<<10) }),
		"low-digit-ties": fill(4096, func(int) float32 { return math.Float32frombits(0xbf800000 | uint32(rng.Intn(4))) }),
		// Index deltas on both sides of the uvarint length steps: spikes
		// over a zero background whose ties fill the rest of k from index 0.
		"delta-varint-steps": func() []float32 {
			s := make([]float32, 1<<18)
			at := 40000
			for _, gap := range []int{1, 127, 128, 129, 16383, 16384, 16385, 2} {
				at += gap
				s[at-1] = -7
			}
			return s
		}(),
		"ascending":  fill(1<<12, func(i int) float32 { return float32(i) }),
		"descending": fill(1<<12, func(i int) float32 { return -float32(1<<12 - i) }),
	}
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 1<<16 - 1, 1 << 16, 1<<16 + 1} {
		cases["normal-"+strconv.Itoa(n)] = fill(n, func(int) float32 { return float32(rng.NormFloat64()) })
		cases["ties-"+strconv.Itoa(n)] = fill(n, func(int) float32 { return float32(rng.Intn(5)-2) * 0.5 })
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) { checkTopKAgainstReference(t, s) })
		if len(s) > 0 && len(s) <= topkSampleCutoff {
			t.Run(name+"-tiled", func(t *testing.T) { checkTopKAgainstReference(t, tile(s)) })
		}
	}
}

// TestTopKSampledBoundOvershoots: the slice's largest values sit exactly
// where the sampler reads, so the sampled bound is one that fewer than k
// keys reach, and the encoder must fall back to taking every entry as a
// candidate.
func TestTopKSampledBoundOvershoots(t *testing.T) {
	const n = 1 << 17
	// The sampler's positions: sample a slice whose entries are their own
	// indices (exact in float32 below 2^24).
	sc := new(topkScratch)
	sc.lowerBound(fill(n, func(i int) float32 { return float32(i) }), topKCount(n))
	rng := rand.New(rand.NewSource(23))
	s := fill(n, func(int) float32 { return rng.Float32() })
	for j, p := range sc.sample {
		s[int(p)] = 100 + float32(j)
	}
	if lb, reach, _ := boundCounts(s); reach >= topKCount(n) {
		t.Fatalf("bound %#x is reached by %d keys, want fewer than k = %d", lb, reach, topKCount(n))
	}
	checkTopKAgainstReference(t, s)
}

// TestTopKTieRunStraddlesSampledBound: the sampled bound lands on a run
// of equal values that the k-th largest key also falls in, so fewer than
// k keys lie above the bound, the bound is the threshold, and the run is
// cut at the first k survivors by index. The run ends at a compaction
// block's edge, or crosses one.
func TestTopKTieRunStraddlesSampledBound(t *testing.T) {
	const n = 1 << 17
	k := topKCount(n)
	for _, start := range []int{n / 4, topkBlock - n/8} {
		s := fill(n, func(i int) float32 {
			switch {
			case i%10 == 0:
				return -3 // a tenth of the slice, above the run
			case i >= start && i < start+n/4:
				return 2 // the run
			}
			return 1
		})
		if lb, reach, above := boundCounts(s); lb != topkMag(2) || above >= k || reach < k {
			t.Fatalf("run at %d: bound %#x reached by %d keys, %d above it; want the run's key %#x, fewer than k = %d above, k reached",
				start, lb, reach, above, topkMag(2), k)
		}
		checkTopKAgainstReference(t, s)
	}
}

// TestTopKEncodeAllocs: once the pooled scratch has grown for a report,
// encoding it again into a frame with room allocates nothing — not the
// candidates, the select's bucket, nor the survivors.
func TestTopKEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	m := benchRank1Report(rand.New(rand.NewSource(38)))
	frame := appendCompressedSlices(nil, m.Grads, CompressTopK)
	if allocs := testing.AllocsPerRun(10, func() {
		frame = appendCompressedSlices(frame[:0], m.Grads, CompressTopK)
	}); allocs != 0 {
		t.Fatalf("a warm top-k encode allocates %v times, want 0", allocs)
	}
}

// TestTopKConcurrentEncoders: eight goroutines encode different slices at
// once through the shared scratch pool — sampled and whole, selected and
// cut at the bound, each a different length so a scratch is handed from
// a longer slice to a shorter one and back — and every frame must match
// the reference.
func TestTopKConcurrentEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ss := make([][]float32, 8)
	want := make([][]byte, len(ss))
	for g := range ss {
		n := topkSampleCutoff/2 + rng.Intn(4*topkSampleCutoff)
		if g%2 == 0 {
			ss[g] = fill(n, func(int) float32 { return float32(rng.NormFloat64()) })
		} else {
			ss[g] = fill(n, func(int) float32 { return float32(rng.Intn(5)-2) * 0.5 })
		}
		want[g] = refTopKSection(ss[g])
	}
	var wg sync.WaitGroup
	for g, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				if got := appendCompressedSlices(nil, [][]float32{s}, CompressTopK); !bytes.Equal(got, want[g]) {
					t.Errorf("goroutine %d, encode %d: n=%d frame differs from the sort-based reference", g, rep, len(s))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTopKMatchesSortReferenceLarge: train-comm's largest tensor, 1M
// gradient-like values (the magnitudes a 2048-bucket first level spreads
// thinly), the same length with heavy ties, and the rank-1 outer product
// a train-comm token reports, whose candidates must go through the
// select.
func TestTopKMatchesSortReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checkTopKAgainstReference(t, fill(1<<20, func(int) float32 {
		return float32(rng.NormFloat64() * math.Exp(4*rng.NormFloat64()))
	}))
	checkTopKAgainstReference(t, fill(1<<20, func(int) float32 { return float32(rng.Intn(64)) - 32 }))
	rank1 := benchRank1Report(rng).Grads[0]
	if lb, reach, above := boundCounts(rank1); above < topKCount(len(rank1)) {
		t.Fatalf("rank-1: bound %#x reached by %d keys, %d above it; want at least k = %d above", lb, reach, above, topKCount(len(rank1)))
	}
	checkTopKAgainstReference(t, rank1)
}

// FuzzTopKSelect reinterprets the input as little-endian float32s —
// every bit pattern, so NaN payloads, denormals and both zeros turn up —
// and holds encoder and decoder to the sort-based reference, on the
// slice itself and tiled past the sampling cutoff.
func FuzzTopKSelect(f *testing.F) {
	le := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(le())
	f.Add(le(0x3f800000))
	f.Add(le(0x7fc00000, 0xff800000, 0x7f800000, 0xffc00001, 0, 0x80000000, 1, 0x80000001, 0x3f800000))
	f.Add(le(0x3f800001, 0x3f800000, 0x3f800001, 0xbf800001, 0x3f800400, 0x3f800000, 0x3f900000, 0x3f800001, 0x3f800001, 0x3f800001))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := make([]float32, len(data)/4)
		for i := range s {
			s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkTopKAgainstReference(t, s)
		if len(s) > 0 {
			checkTopKAgainstReference(t, tile(s))
		}
	})
}

// TestTopKFoldMatchesDenseFold is the property the coordinator's sparse
// fold rests on: adding a top-k report's sections into an accumulator
// with AddScaledTo gives the bits that adding the reference decoder's
// dense expansion with tensor.AddScaled gives. Accumulators start at +0,
// as the coordinator's do, or at values a sum can hold — never −0, and
// never a signalling NaN, which any addition quiets — and take a run of
// reports in turn. Reports mix NaN, ±Inf, −0 and subnormals into
// random values, or are mostly zero, so that ties select zeros of both
// signs; scales include ones that underflow a product to −0 and
// overflow it to ±Inf.
func TestTopKFoldMatchesDenseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	special := specialFloats()
	salted := func(n int) []float32 {
		return fill(n, func(int) float32 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40)))
		})
	}
	sparse := func(n int) []float32 {
		return fill(n, func(int) float32 {
			switch rng.Intn(20) {
			case 0:
				return float32(rng.NormFloat64())
			case 1, 2, 3:
				return float32(math.Copysign(0, -1))
			}
			return 0
		})
	}
	sums := func(n int) []float32 {
		s := salted(n)
		for i, v := range s {
			if b := math.Float32bits(v); b == 1<<31 {
				s[i] = 0
			} else if v != v {
				s[i] = math.Float32frombits(b | 1<<22) // quiet
			}
		}
		return s
	}
	fracs := []float32{0.125, 1, 1.0 / 3, 1e-38, 3e38}
	for _, n := range []int{1, 7, 64, 1000, 40000} {
		for _, start := range []string{"zero", "salted"} {
			for _, frac := range fracs {
				dense := tensor.New(n)
				if start == "salted" {
					copy(dense.Data, sums(n))
				}
				acc := slices.Clone(dense.Data)
				for rep := 0; rep < 6; rep++ {
					g := salted(n)
					if rep%2 == 1 {
						g = sparse(n)
					}
					section := appendCompressedSlices(nil, [][]float32{g}, CompressTopK)
					secs, err := decodeTopKSection(&PayloadReader{data: section})
					if err != nil {
						t.Fatal(err)
					}
					ref := refTopKDecode(&PayloadReader{data: section})
					secs[0].AddScaledTo(acc, frac)
					dense.AddScaled(&tensor.Tensor{Shape: []int{n}, Data: ref[0]}, frac)
					for i := range acc {
						if math.Float32bits(acc[i]) != math.Float32bits(dense.Data[i]) {
							t.Fatalf("n=%d start=%s frac=%g report %d: acc[%d] = %#08x sparse, %#08x dense",
								n, start, frac, rep, i, math.Float32bits(acc[i]), math.Float32bits(dense.Data[i]))
						}
					}
				}
			}
		}
	}
}

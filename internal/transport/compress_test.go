package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fela/internal/obs"
)

// compressedSample is the deterministic report frame the compressed
// golden tests and round trips share: multiple slices, mixed signs,
// zeros, a subnormal-range value and a length-1 slice.
func compressedSample() *Message {
	return &Message{
		Kind: KindReport, WID: 2, Iter: 5,
		Token: TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16, Owner: 0},
		Loss:  0.75,
		Grads: [][]float32{
			{1.5, -2.25, 0, 0.125, -0.0625, 3, -3, 0.5, 1e-5, -1e-5, 7.25, 0, 0.375, -8, 2, 0.25},
			{0.001953125},
			{-4, 4, 0, 0, 1, -1, 2.5, -2.5, 0.75},
		},
	}
}

// TestFP16ExhaustiveRoundTrip widens every one of the 65536 half values
// and narrows it back: the conversion pair must be the identity on all
// non-NaN halves (NaN payloads may be quieted but must stay NaN).
func TestFP16ExhaustiveRoundTrip(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		f := f16tof32(uint16(h))
		isNaN := h&0x7c00 == 0x7c00 && h&0x3ff != 0
		if isNaN {
			if f == f {
				t.Fatalf("half %#04x is NaN, widened to %v", h, f)
			}
			back := f32tof16(f)
			if back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("half NaN %#04x did not narrow back to NaN (%#04x)", h, back)
			}
			continue
		}
		if back := f32tof16(f); back != uint16(h) {
			t.Fatalf("half %#04x -> %v -> %#04x, not the identity", h, f, back)
		}
	}
}

// TestFP16KnownValues pins the rounding behavior of the narrowing
// conversion: round-to-nearest-even, overflow to Inf, subnormal
// halves, flush of values below the smallest subnormal.
func TestFP16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		want uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-2, 0xc000},
		{0.5, 0x3800},
		{65504, 0x7bff},                  // largest finite half
		{65520, 0x7c00},                  // rounds up to +Inf
		{-65520, 0xfc00},                 // rounds down to -Inf
		{1e30, 0x7c00},                   // far overflow
		{float32(math.Inf(1)), 0x7c00},   // Inf stays Inf
		{5.9604644775390625e-08, 0x0001}, // 2^-24: smallest subnormal
		{2.9802322387695312e-08, 0x0000}, // 2^-25: tie, rounds to even 0
		{4.470348358154297e-08, 0x0001},  // 1.5·2^-24 rounds up
		{1.00048828125, 0x3c00},          // 1+2^-11: tie, rounds to even
		{1.0009765625, 0x3c01},           // 1+2^-10: exactly representable
		{1.0014648438, 0x3c02},           // 1+3·2^-11 rounds up (odd below)
	}
	for _, c := range cases {
		if got := f32tof16(c.f); got != c.want {
			t.Errorf("f32tof16(%v) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
	if got := f32tof16(float32(math.NaN())); got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
		t.Errorf("f32tof16(NaN) = %#04x, not a half NaN", got)
	}
}

// TestInt8QuantErrorBound: dequantized values must sit within half a
// quantization step of the original (the round-half-away guarantee),
// and a slice's extreme magnitude must survive with full int8 range.
func TestInt8QuantErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64()) * float32(math.Pow(10, float64(rng.Intn(7)-3)))
		}
		scale := int8Scale(s)
		bound := float64(scale)*0.5 + float64(scale)*1e-5
		for _, v := range s {
			dec := float32(quantInt8(v, scale)) * scale
			if err := math.Abs(float64(dec - v)); err > bound {
				t.Fatalf("trial %d: |dec-v| = %g exceeds scale/2 = %g (v=%v scale=%v)", trial, err, bound, v, scale)
			}
		}
	}
	// All-zero slices quantize to zero with a zero scale.
	if s := int8Scale(make([]float32, 5)); s != 0 {
		t.Fatalf("zero slice scale = %v", s)
	}
	if q := quantInt8(3, 0); q != 0 {
		t.Fatalf("zero-scale quant = %d", q)
	}
}

// TestInt8NonFinitePoisonsSlice: a NaN or Inf anywhere in a slice makes
// its int8 scale NaN or Inf and the whole slice decode as NaN — a NaN
// never decodes as 0 beside finite neighbours — while the report's other
// slices decode as usual. The committed int8 golden frame holds no
// non-finite value, so its bytes are what they were before NaN was kept.
func TestInt8NonFinitePoisonsSlice(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, s := range [][]float32{
		{0.5, nan, -1}, {nan, 0.5, -1}, {0.5, -1, nan}, {inf, nan}, {nan, -inf},
		{0.5, inf, -1}, {0.5, -1, -inf},
	} {
		scale := float64(int8Scale(s))
		hasNaN := slices.ContainsFunc(s, func(v float32) bool { return v != v })
		if hasNaN && !math.IsNaN(scale) || !hasNaN && !math.IsInf(scale, 1) {
			t.Fatalf("%v: scale %v, want NaN with a NaN in the slice, else +Inf", s, scale)
		}
		m := &Message{Kind: KindReport, Grads: [][]float32{s, {127, -64}}}
		m.SetGradCodec(CompressInt8)
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range got.Grads[0] {
			if v == v {
				t.Fatalf("%v: entry %d decoded as %v, want NaN", s, j, v)
			}
		}
		if g := got.Grads[1]; g[0] != 127 || g[1] != -64 { // scale 1: exact
			t.Fatalf("%v: finite slice decoded as %v", s, g)
		}
		got.Release()
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "binary-report-int8.frame"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeBinary(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for _, g := range m.Grads {
		for _, v := range g {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("int8 golden frame decodes a non-finite value: %v", g)
			}
		}
	}
}

// TestTopKSelectProperties: the selection returns exactly k strictly
// increasing indices, keeps only largest magnitudes, breaks ties to the
// lowest index, is deterministic, and always keeps NaNs.
func TestTopKSelectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Mostly short slices, where k steps with every eighth entry;
		// one in ten long enough to give every radix level real counts.
		n := 1 + rng.Intn(64)
		if trial%10 == 9 {
			n = 1 + rng.Intn(1<<15)
		}
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
			if rng.Intn(4) == 0 {
				s[i] = 0.25 // force magnitude ties
			}
		}
		k := topKCount(n)
		idx := topKIndices(t, s)
		if len(idx) != k {
			t.Fatalf("trial %d: selected %d indices, want k=%d", trial, len(idx), k)
		}
		kept := make(map[int]bool, k)
		for i, ix := range idx {
			if i > 0 && ix <= idx[i-1] {
				t.Fatalf("trial %d: indices not strictly increasing: %v", trial, idx)
			}
			kept[ix] = true
		}
		var minKept float32 = float32(math.Inf(1))
		for _, ix := range idx {
			if m := keyMag(s[ix]); m < minKept {
				minKept = m
			}
		}
		for i, v := range s {
			if !kept[i] && keyMag(v) > minKept {
				t.Fatalf("trial %d: dropped |%v| at %d while keeping magnitude %v", trial, v, i, minKept)
			}
		}
		// Among entries at the smallest kept magnitude, a dropped one
		// never precedes a kept one.
		droppedTie := false
		for i, v := range s {
			if keyMag(v) != minKept {
				continue
			}
			if !kept[i] {
				droppedTie = true
			} else if droppedTie {
				t.Fatalf("trial %d: tie at %d kept after an earlier one was dropped", trial, i)
			}
		}
		if again := topKIndices(t, s); !slices.Equal(idx, again) {
			t.Fatalf("trial %d: selection not deterministic: %v vs %v", trial, idx, again)
		}
	}
	// Ties break to the lowest index.
	idx := topKIndices(t, []float32{1, -1, 1, 1, 1, 1, 1, 1, 1})
	if idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("tie break selected %v, want [0 1]", idx)
	}
	// A NaN gradient must always be kept so the declared k is met.
	s := []float32{0.5, float32(math.NaN()), 9, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14}
	idx = topKIndices(t, s)
	foundNaN := false
	for _, ix := range idx {
		if s[ix] != s[ix] {
			foundNaN = true
		}
	}
	if !foundNaN {
		t.Fatalf("NaN dropped from top-k selection: %v", idx)
	}
}

// TestCompressedRoundTrips pushes a report through each lossy codec and
// checks the frame version, the decoded codec tag, and the per-codec
// reconstruction guarantee (fp16 quantization, int8 error bound, top-k
// exact survivors + zeros elsewhere, from sections that re-encode to the
// same frame). Non-gradient fields and Params must survive exactly under
// every codec.
func TestCompressedRoundTrips(t *testing.T) {
	for _, codec := range []Compression{CompressFP16, CompressInt8, CompressTopK} {
		t.Run(codec.String(), func(t *testing.T) {
			m := compressedSample()
			m.SetGradCodec(codec)
			data, err := EncodeBinary(m)
			if err != nil {
				t.Fatal(err)
			}
			if data[2] != frameVersion2 {
				t.Fatalf("compressed frame version = %d, want %d", data[2], frameVersion2)
			}
			if Compression(data[8]) != codec {
				t.Fatalf("frame codec byte = %d, want %v", data[8], codec)
			}
			exact, err := EncodeBinary(compressedSample())
			if err != nil {
				t.Fatal(err)
			}
			if len(data) >= len(exact) && codec != CompressFP16 {
				t.Fatalf("%v frame (%d bytes) not smaller than exact (%d)", codec, len(data), len(exact))
			}
			got, err := DecodeBinary(data)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Release()
			if got.GradCodec() != codec {
				t.Fatalf("decoded codec = %v, want %v", got.GradCodec(), codec)
			}
			if got.Kind != m.Kind || got.WID != m.WID || got.Iter != m.Iter ||
				got.Token != m.Token || got.Loss != m.Loss {
				t.Fatalf("non-gradient fields mangled: %+v", got)
			}
			want := compressedSample().Grads
			grads := got.Grads
			if codec == CompressTopK {
				if grads != nil {
					t.Fatal("top-k report decoded to dense grads")
				}
				for _, sec := range got.TopK() {
					grads = append(grads, expandTopK(sec))
				}
				again, err := EncodeBinary(got)
				if err != nil || !bytes.Equal(again, data) {
					t.Fatalf("decoded top-k report re-encodes to other bytes (err %v)", err)
				}
			}
			if len(grads) != len(want) || got.NumGrads() != len(want) {
				t.Fatalf("grads slice count %d (NumGrads %d), want %d", len(grads), got.NumGrads(), len(want))
			}
			for si, ws := range want {
				gs := grads[si]
				if got.GradLen(si) != len(ws) {
					t.Fatalf("slice %d GradLen %d, want %d", si, got.GradLen(si), len(ws))
				}
				if len(gs) != len(ws) {
					t.Fatalf("slice %d length %d, want %d", si, len(gs), len(ws))
				}
				switch codec {
				case CompressFP16:
					for j, v := range ws {
						if exp := f16tof32(f32tof16(v)); gs[j] != exp {
							t.Fatalf("slice %d[%d]: fp16 decode %v, want %v", si, j, gs[j], exp)
						}
					}
				case CompressInt8:
					scale := int8Scale(ws)
					for j, v := range ws {
						if err := math.Abs(float64(gs[j] - v)); err > float64(scale)*0.5001 {
							t.Fatalf("slice %d[%d]: int8 error %g exceeds scale/2 (%g)", si, j, err, scale/2)
						}
					}
				case CompressTopK:
					k := topKCount(len(ws))
					nonzero := 0
					keptIdx := map[int]bool{}
					for _, ix := range refTopKSelect(ws, k) {
						keptIdx[ix] = true
					}
					for j, v := range gs {
						if v != 0 {
							nonzero++
						}
						if keptIdx[j] {
							if v != ws[j] {
								t.Fatalf("slice %d[%d]: kept value %v, want exact %v", si, j, v, ws[j])
							}
						} else if v != 0 {
							t.Fatalf("slice %d[%d]: dropped entry decoded to %v, want 0", si, j, v)
						}
					}
					if nonzero > k {
						t.Fatalf("slice %d: %d nonzero entries, top-k declared %d", si, nonzero, k)
					}
				}
			}
		})
	}
	// The exact codec must still emit a version-1 frame, byte-identical
	// to a message that never heard of compression.
	m := compressedSample()
	m.SetGradCodec(CompressExact)
	tagged, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := EncodeBinary(compressedSample())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tagged, plain) {
		t.Fatal("exact-tagged frame differs from an untagged encode")
	}
	if tagged[2] != frameVersion {
		t.Fatalf("exact frame version = %d, want %d", tagged[2], frameVersion)
	}
}

// TestParamsStayExactUnderCompression: a broadcast-style message (Params,
// no Grads) under a lossy codec must still deliver bit-exact parameters —
// only the Grads section is lossy.
func TestParamsStayExactUnderCompression(t *testing.T) {
	m := &Message{Kind: KindIterStart, Iter: 7, Params: [][]float32{{3.14159, -2.71828, 1e-30}, {0.1, 0.2}}}
	m.SetGradCodec(CompressInt8)
	data, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if !equalSlices(got.Params, m.Params) {
		t.Fatalf("Params mangled under int8 codec:\nwant %v\ngot  %v", m.Params, got.Params)
	}
}

// TestCompressedGoldenFrames locks the version-2 wire format for each
// lossy codec byte-for-byte, exactly as TestBinaryGoldenFrames does for
// version 1. Regenerate with
// `go test ./internal/transport/ -run Golden -update`.
func TestCompressedGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, codec := range []Compression{CompressFP16, CompressInt8, CompressTopK} {
		m := compressedSample()
		m.SetGradCodec(codec)
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("%v: encode: %v", codec, err)
		}
		path := filepath.Join(dir, "binary-report-"+codec.String()+".frame")
		if *updateGolden {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v: missing golden frame (regenerate with -update): %v", codec, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%v: encoded frame differs from committed golden (%d vs %d bytes) — compressed wire format changed without a version bump", codec, len(data), len(want))
		}
	}
}

// TestCompressedTruncationErrors: every strict prefix of a valid
// compressed frame must fail with a codec-class error, never a panic or
// a silent partial decode.
func TestCompressedTruncationErrors(t *testing.T) {
	for _, codec := range []Compression{CompressFP16, CompressInt8, CompressTopK} {
		m := compressedSample()
		m.SetGradCodec(codec)
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			got, err := DecodeBinary(data[:cut])
			if err == nil {
				t.Fatalf("%v: truncation at %d/%d decoded without error", codec, cut, len(data))
			}
			if got != nil {
				t.Fatalf("%v: truncation at %d returned a message alongside the error", codec, cut)
			}
			if Classify(err) != ClassCodec {
				t.Fatalf("%v: truncation at %d classified %v, want codec", codec, cut, Classify(err))
			}
		}
	}
}

// TestCompressedGarbleErrors: flipping any byte of a compressed frame
// either decodes (a flipped value bit is a different valid frame) or
// fails cleanly as a codec error.
func TestCompressedGarbleErrors(t *testing.T) {
	for _, codec := range []Compression{CompressFP16, CompressInt8, CompressTopK} {
		m := compressedSample()
		m.SetGradCodec(codec)
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			mut := bytes.Clone(data)
			mut[i] ^= 0xff
			got, err := DecodeBinary(mut)
			if err != nil && Classify(err) != ClassCodec {
				t.Fatalf("%v: garble at %d classified %v, want codec", codec, i, Classify(err))
			}
			got.Release()
		}
	}
}

// TestCompressedHostileHeaders: bad codec ids and nonzero reserved bytes
// in a version-2 header must be rejected before any payload work.
func TestCompressedHostileHeaders(t *testing.T) {
	m := compressedSample()
	m.SetGradCodec(CompressTopK)
	data, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mut []byte) {
		t.Helper()
		got, err := DecodeBinary(mut)
		if err == nil || Classify(err) != ClassCodec {
			t.Fatalf("%s: got %v, want codec error", name, err)
		}
		if got != nil {
			t.Fatalf("%s: message returned alongside error", name)
		}
	}
	// Unknown codec id.
	mut := bytes.Clone(data)
	mut[8] = byte(compressCount)
	check("unknown codec id", mut)
	// Exact codec id in a v2 header: exact frames are version 1 by
	// construction, so a v2+exact frame is malformed.
	mut = bytes.Clone(data)
	mut[8] = byte(CompressExact)
	check("exact codec in v2 header", mut)
	// Reserved header bytes must be zero.
	for off := 9; off < 12; off++ {
		mut = bytes.Clone(data)
		mut[off] = 0x5a
		check("nonzero reserved byte", mut)
	}
	// Unsupported future version.
	mut = bytes.Clone(data)
	mut[2] = 3
	check("unknown frame version", mut)
}

// TestTopKHostileLengths: a top-k section claiming a dense length far
// beyond what its kept count justifies (or a count beyond the length),
// or delta-coded indices out of range, must fail in the pre-allocation
// scan, as the reference decoder fails on them.
func TestTopKHostileLengths(t *testing.T) {
	build := func(section []byte) *PayloadReader {
		return &PayloadReader{data: section}
	}
	appendUv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = binary.AppendUvarint(dst, v)
		}
		return dst
	}
	// k > len.
	r := build(appendUv(nil, 1, 4, 5))
	if _, err := r.scanCompressedSlices(CompressTopK); err == nil {
		t.Fatal("k > len scanned without error")
	}
	// len > 16·k: one slice, dense length 1<<30, k = 1.
	r = build(appendUv(nil, 1, 1<<30, 1))
	if _, err := r.scanCompressedSlices(CompressTopK); err == nil {
		t.Fatal("oversized dense length scanned without error")
	}
	// Total dense floats beyond the frame cap even with a legal ratio:
	// many slices of length 16·k each.
	hostile := appendUv(nil, 1<<20)
	for i := 0; i < 64; i++ {
		hostile = appendUv(hostile, 1<<24, 1<<20)
	}
	if _, err := build(hostile).scanCompressedSlices(CompressTopK); err == nil {
		t.Fatal("dense total beyond MaxFrameBytes scanned without error")
	}
	// Index deltas walking past the dense length: by a one-byte delta, by
	// a multi-byte one, and by a second index that lands on the length.
	// Section: cnt=1, len=8, k=1, delta, value; then cnt=1, len=16, k=2,
	// two deltas, two values.
	valid := appendCompressedSlices(nil, [][]float32{{1, 2, 3, 4, 5, 6, 7, 8}}, CompressTopK)
	s16 := fill(16, func(i int) float32 { return float32(i) })
	valid16 := appendCompressedSlices(nil, [][]float32{s16}, CompressTopK)
	oneByte := bytes.Clone(valid)
	oneByte[3] = 8
	multiByte := slices.Concat(valid[:3], []byte{0x80, 0x01}, valid[4:])
	second := bytes.Clone(valid16)
	second[4] = byte(len(s16) - int(valid16[3]) - 1) // index len(s16)
	for name, mut := range map[string][]byte{"one-byte": oneByte, "multi-byte": multiByte, "second": second} {
		if _, err := build(mut).scanCompressedSlices(CompressTopK); Classify(err) != ClassCodec {
			t.Fatalf("%s: out-of-range top-k index scanned with err %v", name, err)
		}
		if r := build(mut); refTopKDecode(r) != nil || r.err == nil {
			t.Fatalf("%s: the reference decoder accepts the index the scan refuses", name)
		}
	}
	// A valid index section followed by fewer than 4·k value bytes: the
	// scan must refuse it.
	short := valid16[:len(valid16)-1] // cnt, len=16, k=2, two deltas, 7 of 8 value bytes
	if out, err := decodeTopKSection(build(short)); out != nil || Classify(err) != ClassCodec {
		t.Fatalf("short top-k value section decoded to %v, err %v", out, err)
	}
}

// TestTopKCorpusSeedsRejected: the two hostile top-k seeds of the
// FuzzBinaryDecode corpus — an index past the dense length, an index run
// short of its k terminators — fail at decode as codec errors, and the
// first decodes once its index is in range, so the index is its only
// fault.
func TestTopKCorpusSeedsRejected(t *testing.T) {
	seed := func(name string) []byte { return corpusSeed(t, name) }
	for _, name := range []string{"compressed-topk-index-past-end", "compressed-topk-missing-terminators"} {
		if m, err := DecodeBinary(seed(name)); m != nil || Classify(err) != ClassCodec {
			t.Fatalf("%s: decoded to %v, err %v; want a codec error", name, m, err)
		}
	}
	data := seed("compressed-topk-index-past-end")
	data[frameHeaderV2+7+8+3] = 7 // index 7 of 8
	m, err := DecodeBinary(data)
	if err != nil {
		t.Fatalf("the past-end seed with its index in range: %v", err)
	}
	m.Release()
}

// corpusSeed reads the frame of the named FuzzBinaryDecode corpus file.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBinaryDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: not a one-[]byte corpus file (%v)", name, err)
	}
	return []byte(data)
}

// TestCompressionTelemetry: a compressed exchange over a real TCP pair
// must record raw and wire gradient bytes on both ends and a
// compression ratio gauge consistent with the codec.
func TestCompressionTelemetry(t *testing.T) {
	cli, srv := tcpPair(t)
	encReg, decReg := obs.NewRegistry(), obs.NewRegistry()
	if !SetConnMetrics(cli, encReg) || !SetConnMetrics(srv, decReg) {
		t.Fatal("tcp conns did not accept metrics")
	}
	grads := make([]float32, 4096)
	for i := range grads {
		grads[i] = float32(i%997) * 0.001
	}
	m := &Message{Kind: KindReport, WID: 1, Grads: [][]float32{grads}}
	m.SetGradCodec(CompressInt8)
	if err := cli.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.GradCodec() != CompressInt8 {
		t.Fatalf("received codec %v, want int8", got.GradCodec())
	}
	got.Release()
	sum := func(reg *obs.Registry, metric, op string) int64 {
		var total int64
		for labels, v := range reg.CounterValues(metric) {
			if containsAll(labels, op, "int8") {
				total += v
			}
		}
		return total
	}
	rawEnc := sum(encReg, MetricCompressRawBytes, "encode")
	wireEnc := sum(encReg, MetricCompressWireBytes, "encode")
	if rawEnc != int64(4*len(grads)) {
		t.Fatalf("encode raw bytes = %d, want %d", rawEnc, 4*len(grads))
	}
	if wireEnc <= 0 || rawEnc < 3*wireEnc {
		t.Fatalf("int8 wire bytes %d not ≈4x smaller than raw %d", wireEnc, rawEnc)
	}
	if raw := sum(decReg, MetricCompressRawBytes, "decode"); raw != rawEnc {
		t.Fatalf("decode raw bytes = %d, want %d", raw, rawEnc)
	}
	found := false
	for labels, v := range decReg.GaugeValues(MetricCompressRatio) {
		if containsAll(labels, "int8") {
			found = true
			if v < 3 || v > 4.2 {
				t.Fatalf("int8 compression ratio gauge = %v, want ≈4", v)
			}
		}
	}
	if !found {
		t.Fatal("no compression ratio gauge recorded on the decode side")
	}
}

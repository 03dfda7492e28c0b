package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// rank1Sample is a report with two rank-1 sections around a dense one,
// the shape a one-row token's MLP report has: weight, bias, weight.
func rank1Sample() *Message {
	m := &Message{Kind: KindReport, WID: 2, Iter: 5, Token: TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 9}, Loss: 0.75,
		Grads: [][]float32{nil, {0.125, -1}, nil}}
	m.SetRank1([]Rank1Section{
		{X: []float32{1.5, -2.25, 0}, D: []float32{0.5, 4}},
		{},
		{X: []float32{3}, D: []float32{-0.5, 2, float32(math.Copysign(0, -1))}},
	})
	return m
}

// TestRank1GoldenFrame locks the rank-1 report frame byte for byte, as
// TestBinaryGoldenFrames locks the others (regenerate with -update). It
// is a version-3 frame, which a decoder knowing only versions 1 and 2
// refuses as a codec error; it round-trips to the same fields; and a
// report whose rank-1 entries are all zero is the plain version-1
// frame, byte for byte.
func TestRank1GoldenFrame(t *testing.T) {
	m := rank1Sample()
	data, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "binary-report-rank1.frame")
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatalf("missing golden frame (regenerate with -update): %v", err)
	} else if !bytes.Equal(data, want) {
		t.Fatalf("rank-1 frame differs from committed golden (%d vs %d bytes)", len(data), len(want))
	}
	if data[2] != frameVersionRank1 || data[2] == frameVersion || data[2] == frameVersion2 {
		t.Fatalf("rank-1 frame has version byte %d", data[2])
	}
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Grads, m.Grads) || !reflect.DeepEqual(got.Rank1(), m.Rank1()) || got.Loss != m.Loss || got.Token != m.Token {
		t.Fatalf("round trip mangled:\nwant %+v %+v\ngot  %+v %+v", m.Grads, m.Rank1(), got.Grads, got.Rank1())
	}
	for i, want := range []int{6, 2, 3} {
		if n := got.GradLen(i); n != want {
			t.Fatalf("GradLen(%d) = %d, want %d", i, n, want)
		}
	}
	if got.NumGrads() != 3 {
		t.Fatalf("NumGrads = %d, want 3", got.NumGrads())
	}
	got.Release()
	if got.Rank1() != nil {
		t.Fatal("Release left the rank-1 sections in place")
	}

	dense := &Message{Kind: KindReport, WID: 2, Grads: [][]float32{{1, 2}, {3}}}
	plain, err := EncodeBinary(dense)
	if err != nil {
		t.Fatal(err)
	}
	dense.SetRank1(make([]Rank1Section, 2))
	if dense.Rank1() != nil {
		t.Fatal("SetRank1 without a rank-1 section kept the entries")
	}
	if again, err := EncodeBinary(dense); err != nil || !bytes.Equal(again, plain) {
		t.Fatalf("a report without rank-1 sections changed its frame (%v)", err)
	}
}

// TestRank1EncodeRefuses: the encoder refuses rank-1 sections the
// decoder would refuse, as codec errors.
func TestRank1EncodeRefuses(t *testing.T) {
	x, d := []float32{1, 2}, []float32{3}
	cases := []struct {
		name  string
		grads [][]float32
		r1    []Rank1Section
		codec Compression
	}{
		{"lossy codec", [][]float32{nil}, []Rank1Section{{X: x, D: d}}, CompressFP16},
		{"misaligned", [][]float32{nil, {1}}, []Rank1Section{{X: x, D: d}}, CompressExact},
		{"dense and rank-1", [][]float32{{1}}, []Rank1Section{{X: x, D: d}}, CompressExact},
		{"empty δ", [][]float32{nil, nil}, []Rank1Section{{X: x, D: d}, {X: x}}, CompressExact},
		{"δ without x", [][]float32{nil, nil}, []Rank1Section{{X: x, D: d}, {D: d}}, CompressExact},
	}
	for _, tc := range cases {
		m := &Message{Kind: KindReport, Grads: tc.grads}
		m.SetGradCodec(tc.codec)
		m.SetRank1(tc.r1)
		if _, err := EncodeBinary(m); Classify(err) != ClassCodec {
			t.Errorf("%s: encode gave %v, want a codec error", tc.name, err)
		}
	}
}

// rank1Frame is a version-3 report frame of the given grads group,
// every other field zero.
func rank1Frame(grads []byte) []byte {
	payload := append(make([]byte, 7+8), grads...) // WID..Owner varints + loss
	payload = append(payload, 0, 0, 0, 0)          // no params, no error, no job, JobID 0
	payload = append(payload, make([]byte, 16)...) // span
	hdr := []byte{frameMagic0, frameMagic1, frameVersionRank1, byte(KindReport), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	return append(hdr, payload...)
}

// uv is the uvarint encoding of its arguments, one after the other.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeRejectsMalformedPayloads: a rank-1 frame whose header is
// valid but whose grads group is not fails as a codec error before any
// allocation its lengths ask for, and never panics.
func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	floats := func(n int) []byte { return make([]byte, 4*n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	big := 1 << 13 // 2^13 · 2^13 = 2^26 floats: the most one section may stand for
	cases := []struct {
		name  string
		grads []byte
	}{
		{"section count past the end", uv(1 << 40)},
		{"no slices", uv(1, 0, 0)},
		{"three slices", cat(uv(1, 1, 3, 1), floats(1), uv(1), floats(1), uv(1), floats(1))},
		{"empty δ", cat(uv(1, 0, 2, 2), floats(2), uv(0))},
		{"empty x", cat(uv(1, 0, 2, 0), uv(2), floats(2))},
		{"|x| overflowing", cat(uv(1, 6, 2, 1<<62), floats(5))},
		{"|δ| overflowing", cat(uv(1, 6, 2, 2), floats(2), uv(1<<62), floats(3))},
		{"|x|·|δ| below n", cat(uv(1, 7, 2, 2), floats(2), uv(3), floats(3))},
		{"|x|·|δ| above n", cat(uv(1, 5, 2, 2), floats(2), uv(3), floats(3))},
		{"dense length other than n", cat(uv(1, 5, 1, 4), floats(4))},
		{"truncated δ", cat(uv(1, 6, 2, 2), floats(2), uv(3), floats(2))},
		{"dense section past the end", cat(uv(1, 100, 1, 100), floats(3))},
		{"one section over the limit", cat(uv(1, uint64(2*big*big), 2, uint64(2*big)), floats(2*big), uv(uint64(big)), floats(big))},
		{"sections over the limit", cat(
			uv(2, uint64(big*big), 2, uint64(big)), floats(big), uv(uint64(big)), floats(big),
			uv(uint64(big*big), 2, uint64(big)), floats(big), uv(uint64(big)), floats(big))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeBinary(rank1Frame(tc.grads))
			if m != nil || Classify(err) != ClassCodec {
				t.Fatalf("decoded %v, %v; want a codec error", m, err)
			}
		})
	}
	// The two limit cases are sound once they stand for 2^26 floats.
	ok := cat(uv(1, uint64(big*big), 2, uint64(big)), floats(big), uv(uint64(big)), floats(big))
	m, err := DecodeBinary(rank1Frame(ok))
	if err != nil || m.GradLen(0) != big*big {
		t.Fatalf("a section of 2^26 floats: %v", err)
	}
	m.Release()
}

// TestRank1Conns: every conn captures the factors when Send returns —
// the worker's factor buffers are overwritten at its next token — and
// delivers them bit for bit. On the pipe and over TCP alike a factor is
// a float section like any other: an x of viewFloats or more, the
// frame's first section, is
// written from the sender's slice and received as a view of the frame,
// and a short δ is copied.
func TestRank1Conns(t *testing.T) {
	for _, name := range []string{"mem", "tcp"} {
		t.Run(name, func(t *testing.T) {
			var a, b Conn
			if name == "mem" {
				a, b = Pair()
			} else {
				a, b = tcpPair(t)
			}
			SetTimeouts(b, 0, 5*time.Second)
			for _, wid := range []int{0, 64, 8192, 1 << 20} {
				x := fill(viewFloats+1, func(j int) float32 { return float32(j%7) - 3 })
				d := fill(300, func(j int) float32 { return float32(j) * 0.25 })
				m := &Message{Kind: KindReport, WID: wid, Grads: [][]float32{nil, fill(5, func(j int) float32 { return float32(j) })}}
				m.SetRank1([]Rank1Section{{X: x, D: d}, {}})
				want, err := EncodeBinary(m)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Send(m); err != nil {
					t.Fatal(err)
				}
				for j := range x {
					x[j] = -99
				}
				for j := range d {
					d[j] = -99
				}
				got, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if again, err := EncodeBinary(got); err != nil || !bytes.Equal(again, want) {
					t.Fatalf("wid %d: received another report than the one sent (%v)", wid, err)
				}
				if f := got.Rank1()[0]; !inFrame(got, f.X) || inFrame(got, f.D) {
					t.Fatalf("wid %d: want the long x viewed and the short δ copied", wid)
				}
				got.Release()
			}
		})
	}
}

// TestRank1CorpusSeeds: the rank-1 seeds of the FuzzBinaryDecode corpus
// — an empty δ, an overflowing |x|, |x|·|δ| other than the section's
// length, and a δ cut short — fail at decode as codec errors, and the
// valid one decodes to its factors.
func TestRank1CorpusSeeds(t *testing.T) {
	for _, name := range []string{"rank1-zero-delta", "rank1-overflowing-lengths", "rank1-length-mismatch", "rank1-truncated-delta"} {
		if m, err := DecodeBinary(corpusSeed(t, name)); m != nil || Classify(err) != ClassCodec {
			t.Fatalf("%s: decoded to %v, err %v; want a codec error", name, m, err)
		}
	}
	m, err := DecodeBinary(corpusSeed(t, "rank1-valid"))
	if err != nil {
		t.Fatal(err)
	}
	if r1 := m.Rank1(); len(r1) != 2 || !reflect.DeepEqual(r1[0], Rank1Section{X: []float32{1.5, -2.25, 0}, D: []float32{0.5, 4}}) {
		t.Fatalf("rank1-valid decoded to %+v", m.Rank1())
	}
	m.Release()
}

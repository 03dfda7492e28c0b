// Command gencorpus regenerates the committed FuzzBinaryDecode and
// FuzzRecvBinary corpora under internal/transport/testdata/fuzz: one
// valid frame per protocol kind, truncated and bit-flipped variants of
// each, hostile headers (oversized lengths, bad magic or version, bad
// compressed sections), a rank-1 report with hostile variants of its
// factor lengths, and iter-starts for a receive into a destination.
// Run from the repo root:
//
//	go run ./internal/transport/gencorpus
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"fela/internal/transport"
)

func main() {
	msgs := []*transport.Message{
		{Kind: transport.KindRegister, WID: 3},
		{Kind: transport.KindRequest, WID: 1, Iter: 4},
		{Kind: transport.KindAssign, Iter: 2, Token: transport.TokenInfo{ID: 17, Seq: 3, Lo: 24, Hi: 32, Owner: 1}},
		{Kind: transport.KindReport, WID: 2, Iter: 5, Token: transport.TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16},
			Grads: [][]float32{{1.5, -2.25}, {0.125}}, Loss: 0.75},
		{Kind: transport.KindIterStart, Iter: 7, Params: [][]float32{{3, 1, 4}, {1, 5}}},
		{Kind: transport.KindShutdown},
	}
	writeCorpus := func(fuzz string, corpus map[string][]byte) {
		dir := filepath.Join("internal", "transport", "testdata", "fuzz", fuzz)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		for name, data := range corpus {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("gencorpus: wrote %d corpus entries to %s\n", len(corpus), dir)
	}
	binExtra := map[string][]byte{
		"empty": nil,
		"noise": {0xff, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x7f},
	}
	for _, m := range msgs {
		data, err := transport.EncodeBinary(m)
		if err != nil {
			fatal(err)
		}
		kind := m.Kind.String()
		binExtra["valid-"+kind] = data
		binExtra["truncated-"+kind] = data[:len(data)/2]
		garbled := append([]byte(nil), data...)
		garbled[len(garbled)/3] ^= 0xff
		binExtra["garbled-"+kind] = garbled
	}
	// A header whose declared payload length is far beyond the bytes
	// present: must be rejected before any allocation.
	binExtra["oversized-length"] = []byte{0xFE, 0x7A, 1, 3, 0xff, 0xff, 0xff, 0x0f}
	// Wrong magic and an unsupported version.
	binExtra["bad-magic"] = []byte{0x00, 0x7A, 1, 0, 0, 0, 0, 0}
	binExtra["bad-version"] = []byte{0xFE, 0x7A, 9, 0, 0, 0, 0, 0}
	// Version-2 (compressed-gradient) seeds: a valid and a truncated
	// frame per lossy codec, plus hostile header variants.
	report := &transport.Message{
		Kind: transport.KindReport, WID: 2, Iter: 5,
		Token: transport.TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16},
		Grads: [][]float32{{1.5, -2.25, 0, 3, -3, 0.5, 0.125, -8, 7.25}, {0.125}},
		Loss:  0.75,
	}
	for _, codec := range []transport.Compression{
		transport.CompressFP16, transport.CompressInt8, transport.CompressTopK,
	} {
		report.SetGradCodec(codec)
		data, err := transport.EncodeBinary(report)
		if err != nil {
			fatal(err)
		}
		binExtra["compressed-"+codec.String()] = data
		binExtra["compressed-truncated-"+codec.String()] = data[:len(data)/2]
	}
	report.SetGradCodec(transport.CompressTopK)
	v2, err := transport.EncodeBinary(report)
	if err != nil {
		fatal(err)
	}
	badCodec := append([]byte(nil), v2...)
	badCodec[8] = 0x7f // unknown gradient codec id
	binExtra["compressed-bad-codec"] = badCodec
	badReserved := append([]byte(nil), v2...)
	badReserved[9] = 0x5a // reserved header bytes must be zero
	binExtra["compressed-bad-reserved"] = badReserved
	// A top-k section whose dense length dwarfs its kept count: must be
	// rejected in the pre-allocation scan. The report payload carries 7
	// zero varints and 8 loss bytes before the grads section claims an
	// expansion to 1<<30 floats against a single kept entry.
	hostile := []byte{
		0xFE, 0x7A, 2, 3, 22, 0, 0, 0, // v2 header, kind report, payload 22
		byte(transport.CompressTopK), 0, 0, 0,
	}
	hostile = append(hostile, make([]byte, 7+8)...) // WID..Owner varints + loss
	hostile = append(hostile,
		1,                            // one slice
		0x80, 0x80, 0x80, 0x80, 0x04, // dense length 1<<30
		1, // k = 1
	)
	binExtra["compressed-topk-oversized"] = hostile
	// Two top-k sections the decoder's scan must refuse, each in a report
	// whose other fields are zero. One keeps index 8 of a dense length of
	// 8, followed by its value and the frame's remaining fields; the
	// other declares k = 2, and its index run has one terminator before
	// the payload ends.
	topkReport := func(section ...byte) []byte {
		payload := append(make([]byte, 7+8), section...) // WID..Owner varints + loss
		return append([]byte{
			0xFE, 0x7A, 2, 3, byte(len(payload)), 0, 0, 0,
			byte(transport.CompressTopK), 0, 0, 0,
		}, payload...)
	}
	binExtra["compressed-topk-index-past-end"] = topkReport(append([]byte{
		1,       // one slice
		8, 1, 8, // dense length 8, k = 1, index 8
		0, 0, 0, 0, // its value
		0, 0, 0, 0, // no params, no error, no job, JobID 0
	}, make([]byte, 16)...)...) // span
	binExtra["compressed-topk-missing-terminators"] = topkReport(
		1,        // one slice
		16, 2, 3, // dense length 16, k = 2, index 3
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, // no second terminator
	)
	// Version-3 (rank-1) seeds: a valid report whose weight gradients
	// travel as factors, and four grads groups the decoder must refuse
	// before it allocates, each in a report whose other fields are zero.
	rank1 := &transport.Message{
		Kind: transport.KindReport, WID: 2, Iter: 5,
		Token: transport.TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 9},
		Grads: [][]float32{nil, {0.125, -1}},
		Loss:  0.75,
	}
	rank1.SetRank1([]transport.Rank1Section{{X: []float32{1.5, -2.25, 0}, D: []float32{0.5, 4}}, {}})
	if binExtra["rank1-valid"], err = transport.EncodeBinary(rank1); err != nil {
		fatal(err)
	}
	rank1Report := func(section ...byte) []byte {
		payload := append(make([]byte, 7+8), section...) // WID..Owner varints + loss
		payload = append(payload, make([]byte, 4+16)...) // params..JobID, span
		return append([]byte{0xFE, 0x7A, 3, 3, byte(len(payload)), 0, 0, 0}, payload...)
	}
	// One section each: its dense length, then a group of two slices,
	// x and δ, each a length and its floats.
	binExtra["rank1-zero-delta"] = rank1Report(append(append([]byte{1, 0, 2, 2}, make([]byte, 8)...), 0)...)
	binExtra["rank1-overflowing-lengths"] = rank1Report(append([]byte{1, 6, 2,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, // |x| = 1<<62
	}, make([]byte, 20)...)...)
	binExtra["rank1-length-mismatch"] = rank1Report(append(append(append([]byte{1, 7, 2, 2}, make([]byte, 8)...), 3), make([]byte, 12)...)...)
	binExtra["rank1-truncated-delta"] = rank1Report(append(append([]byte{1, 6, 2, 2}, make([]byte, 8)...), 3, 0, 0, 0, 0)...)
	writeCorpus("FuzzBinaryDecode", binExtra)
	// FuzzRecvBinary seeds: iter-starts shaped like the fixed destination
	// that fuzz target receives into (fuzzDest in dest_test.go:
	// train-comm's four tensors with 32 for its 1024-unit widths), one
	// whose third section is a float short of it, and the first cut
	// inside its first section.
	iterStart := func(lens ...int) []byte {
		m := &transport.Message{Kind: transport.KindIterStart, Iter: 7}
		for i, n := range lens {
			p := make([]float32, n)
			for j := range p {
				p[j] = float32(i*131+j%977) * 0.25
			}
			m.Params = append(m.Params, p)
		}
		data, err := transport.EncodeBinary(m)
		if err != nil {
			fatal(err)
		}
		return data
	}
	shaped := iterStart(32*32, 32, 32*16, 16)
	writeCorpus("FuzzRecvBinary", map[string][]byte{
		"iter-start-train-comm-shape": shaped,
		"iter-start-mismatched-shape": iterStart(32*32, 32, 32*16-1, 16),
		"iter-start-torn-in-section":  shaped[:len(shaped)/3],
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gencorpus:", err)
	os.Exit(1)
}

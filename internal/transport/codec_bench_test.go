package transport

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchIterStart builds an iter-start broadcast with n float32
// parameters split across a few VGG-ish tensor shapes — the hot frame
// the binary codec exists for.
func benchIterStart(n int) *Message {
	chunks := [][]float32{}
	for rem := n; rem > 0; {
		c := min(rem, 1<<16)
		s := make([]float32, c)
		for i := range s {
			s[i] = float32(i%113) * 0.25
		}
		chunks = append(chunks, s)
		rem -= c
	}
	return &Message{Kind: KindIterStart, Iter: 5, Params: chunks}
}

const benchFloats = 1 << 18 // 256k params ≈ 1 MiB payload: big enough to dominate

func BenchmarkCodecBinaryEncode(b *testing.B) {
	m := benchIterStart(benchFloats)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := framePool.Get().(*[]byte)
		buf, err := AppendFrame((*bp)[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		*bp = buf[:0]
		framePool.Put(bp)
	}
}

func BenchmarkCodecBinaryDecode(b *testing.B) {
	data, err := EncodeBinary(benchIterStart(benchFloats))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := DecodeBinary(data)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

func BenchmarkCodecGobEncode(b *testing.B) {
	m := benchIterStart(benchFloats)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeFrame(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecGobDecode(b *testing.B) {
	data, err := EncodeFrame(benchIterStart(benchFloats))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecBinaryEncodeSmall covers the tiny control messages
// (request/assign/report headers) where fixed overhead, not bulk float
// copying, dominates.
func BenchmarkCodecBinaryEncodeSmall(b *testing.B) {
	m := &Message{Kind: KindAssign, Iter: 2, Token: TokenInfo{ID: 17, Seq: 3, Lo: 24, Hi: 32, Owner: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := framePool.Get().(*[]byte)
		buf, err := AppendFrame((*bp)[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		*bp = buf[:0]
		framePool.Put(bp)
	}
}

// benchReport builds a report with train-comm's gradient tensors
// (NewMLP(·,1024,1024,16): 1024×1024, 1024, 1024×16, 16), filled by f.
func benchReport(codec Compression, f func(i int) float32) *Message {
	m := &Message{Kind: KindReport, WID: 1, Iter: 3, Token: TokenInfo{ID: 2, Seq: 2, Lo: 2, Hi: 3}, Loss: 0.5}
	for _, n := range []int{1024 * 1024, 1024, 1024 * 16, 16} {
		m.Grads = append(m.Grads, fill(n, f))
	}
	m.SetGradCodec(codec)
	return m
}

// BenchmarkCodecReport is a report frame's encode and decode under each
// gradient codec at train-comm's size; MB/s counts dense gradient bytes,
// so codecs compare directly, and wire_B/op is what they ship. topk-equal
// is top-k on an all-equal gradient — the input that made a sort- or
// pivot-based selection degenerate; it must cost what topk costs.
func BenchmarkCodecReport(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	grad := func(int) float32 { return float32(rng.NormFloat64() * 1e-3) }
	cases := []struct {
		name string
		msg  *Message
	}{
		{"exact", benchReport(CompressExact, grad)},
		{"fp16", benchReport(CompressFP16, grad)},
		{"int8", benchReport(CompressInt8, grad)},
		{"topk", benchReport(CompressTopK, grad)},
		{"topk-equal", benchReport(CompressTopK, func(int) float32 { return 1e-3 })},
	}
	for _, c := range cases {
		raw := 0
		for _, g := range c.msg.Grads {
			raw += 4 * len(g)
		}
		frame, err := EncodeBinary(c.msg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err := EncodeBinaryPooled(c.msg)
				if err != nil {
					b.Fatal(err)
				}
				ReleaseFrame(buf)
			}
			b.ReportMetric(float64(len(frame)), "wire_B/op")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := DecodeBinary(frame)
				if err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
	}
}

// TestBenchHelpersShape sanity-checks the benchmark payload builder so a
// silent change there cannot skew codec comparisons.
func TestBenchHelpersShape(t *testing.T) {
	m := benchIterStart(benchFloats)
	total := 0
	for _, p := range m.Params {
		total += len(p)
	}
	if total != benchFloats {
		t.Fatalf("benchIterStart carries %d floats, want %d", total, benchFloats)
	}
	if got := fmt.Sprint(m.Kind); got != "iter-start" {
		t.Fatalf("benchmark message kind %q", got)
	}
}

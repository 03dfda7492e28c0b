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

// benchRank1Report is benchReport's top-k report filled the way backprop
// through NewMLP(·,1024,1024,16) fills it on one sample: a weight
// gradient (in×out) is the outer product of the layer's input and its
// output delta, so the hidden ReLU, which zeroes half the units, zeroes
// half the columns of the first and half the rows of the second.
func benchRank1Report(rng *rand.Rand) *Message {
	m := benchReport(CompressTopK, func(int) float32 { return 0 })
	live := make([]bool, 1024)
	for _, u := range rng.Perm(1024)[:512] {
		live[u] = true
	}
	relu := func(u int, v float64) float32 {
		if !live[u] {
			return 0
		}
		return float32(v)
	}
	x := fill(1024, func(int) float32 { return float32(rng.NormFloat64()) })
	h := fill(1024, func(u int) float32 { return relu(u, rng.ExpFloat64()) })
	d1 := fill(1024, func(u int) float32 { return relu(u, rng.NormFloat64()*1e-3) })
	d2 := fill(16, func(int) float32 { return float32(rng.NormFloat64() * 1e-2) })
	outer := func(dst, in, out []float32) {
		for i, a := range in {
			for j, b := range out {
				dst[i*len(out)+j] = a * b
			}
		}
	}
	outer(m.Grads[0], x, d1)
	copy(m.Grads[1], d1)
	outer(m.Grads[2], h, d2)
	copy(m.Grads[3], d2)
	return m
}

// BenchmarkCodecReport is a report frame's encode and decode under each
// gradient codec at train-comm's size; MB/s counts dense gradient bytes,
// so codecs compare directly, and wire_B/op is what they ship. A top-k
// decode expands nothing: it is DecodeBinary's copy of the frame into a
// pooled buffer, the scan that validates every length and index, and
// the sections that view the copy; the coordinator's fold of them is
// rt's BenchmarkFoldReport. exact, fp16 and int8 decode to dense floats.
// topk is Gaussian noise; topk-rank1 is what a train-comm token reports,
// so it prices the selection on the keys the run sees. topk-equal is
// top-k on an all-equal gradient, the degenerate input: every entry
// reaches the sampled bound and is a candidate, no select runs, and the
// survivor pass stops at the k-th. It encodes in less time than topk:
// medians of 1.17 against 1.63 ms on the AVX2 path, 3.69 against 4.99
// on the portable path built for 386 (2-vCPU Xeon, seven and nine runs).
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
		{"topk-rank1", benchRank1Report(rng)},
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

// BenchmarkTCPReport is one exact train-comm report over loopback TCP
// (benchTCP).
func BenchmarkTCPReport(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := benchReport(CompressExact, func(int) float32 { return float32(rng.NormFloat64() * 1e-3) })
	benchTCP(b, m, m.Grads, nil)
}

// BenchmarkTCPIterStart is train-comm's iter-start over loopback TCP
// (benchTCP): the model's four parameter tensors, 4.26 MB, the frame
// every worker receives every iteration. buffered receives it into a
// frame buffer, as a conn without a destination does; in-place into
// live tensors of the model's shape (SetParamsDest), as a worker does,
// with no frame buffer.
func BenchmarkTCPIterStart(b *testing.B) {
	m := &Message{Kind: KindIterStart, Iter: 5}
	m.Params = benchReport(CompressExact, func(i int) float32 { return float32(i%113) * 0.25 }).Grads
	b.Run("buffered", func(b *testing.B) { benchTCP(b, m, m.Params, nil) })
	b.Run("in-place", func(b *testing.B) { benchTCP(b, m, m.Params, zeros(lensOf(m.Params)...)) })
}

// benchTCP sends m, whose float sections are floats, over loopback TCP:
// Send on one end, Recv and Release on the other, into dest when it is
// not nil. MB/s counts the float bytes, allocs/op and B/op cover both
// ends, and rxbuf-MB is the capacity of the frame buffer a received
// message is read into.
func benchTCP(b *testing.B, m *Message, floats [][]float32, dest [][]float32) {
	raw := 0
	for _, g := range floats {
		raw += 4 * len(g)
	}
	tx, rx := tcpPair(b)
	SetParamsDest(rx, dest)
	sent := make(chan error, 1)
	b.SetBytes(int64(raw))
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		var err error
		for i := 0; i < b.N && err == nil; i++ {
			err = tx.Send(m)
		}
		sent <- err
	}()
	rxbuf := 0
	for i := 0; i < b.N; i++ {
		got, err := rx.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if got.frame != nil {
			rxbuf = cap(*got.frame)
		}
		if dest != nil && landedIn(got, dest) != len(dest) {
			b.Fatal("the iter-start did not land in its destination")
		}
		got.Release()
	}
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rxbuf)/1e6, "rxbuf-MB")
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

package rt

import (
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

// commNet is the regression benchmark's train-comm model, an MLP
// 1024-1024-16 (1.07 M parameters, 4.26 MB as float32), and one
// sample's gradients of it.
func commNet() (*minidnn.Network, [][]float32) {
	net := minidnn.NewMLP(3601, 1024, 1024, 16)
	x, labels := minidnn.SyntheticBlobs(3602, 1, 1024, 16).Batch(0, 1)
	net.ZeroGrads()
	net.Loss(x, labels)
	var grads [][]float32
	for _, g := range net.Grads() {
		grads = append(grads, g.Data)
	}
	return net, grads
}

// commReports returns the train-comm model and k of its one-row tokens'
// reports, as a worker builds them under the exact codec — each weight
// gradient as its rank-1 factors, x and δ, each bias dense — copied out
// of the worker's buffers into messages built by hand, which own no
// pooled buffer: Release leaves them whole, to be folded again.
func commReports(k int) (*minidnn.Network, []*transport.Message) {
	w := NewWorker(0, minidnn.NewMLP(3601, 1024, 1024, 16), minidnn.SyntheticBlobs(3602, k, 1024, 16), Config{Workers: 1, TotalBatch: k, TokenBatch: 1, Iterations: 1})
	reports := make([]*transport.Message, k)
	for seq := range reports {
		m, err := w.train(transport.TokenInfo{Seq: seq, Lo: seq, Hi: seq + 1})
		if err != nil {
			panic(err)
		}
		r := &transport.Message{Kind: transport.KindReport, Token: m.Token, Loss: m.Loss, Grads: make([][]float32, len(m.Grads))}
		rank1 := slices.Clone(m.Rank1())
		for i, g := range m.Grads {
			r.Grads[i] = slices.Clone(g)
			rank1[i] = transport.Rank1Section{X: slices.Clone(rank1[i].X), D: slices.Clone(rank1[i].D)}
		}
		r.SetRank1(rank1)
		reports[seq] = r
	}
	return minidnn.NewMLP(3601, 1024, 1024, 16), reports
}

// loopback returns a raw TCP socket and the binary-codec conn accepted
// from it over loopback, both closed when the benchmark ends.
func loopback(b *testing.B) (net.Conn, transport.Conn) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// BenchmarkFoldReport is the coordinator's share of one train-comm
// report in the event loop: Recv, which reads and decodes the frame,
// then fold, which takes it into the iteration's sum and releases it. A
// goroutine writes the report's frame, encoded once beforehand, to the
// socket all along, so the worker's encode is not timed. exact decodes
// to views of the frame and folds through AddScaled; topk decodes to
// sections that view the frame and folds a scaled add at each kept
// index; rank1 is a one-row token's report, whose weight gradients'
// factors fold copies onto their runs for the barrier to add
// (BenchmarkBarrierFold). MB/s counts the dense gradient bytes a report
// stands for.
func BenchmarkFoldReport(b *testing.B) {
	for _, name := range []string{"exact", "topk", "rank1"} {
		b.Run(name, func(b *testing.B) {
			net, grads := commNet()
			co, err := NewCoordinator(net, Config{Workers: 1, TotalBatch: 64, TokenBatch: 1, Iterations: 1, LR: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			co.initFold()
			report := &transport.Message{Kind: transport.KindReport, Token: transport.TokenInfo{Hi: 1}, Grads: grads}
			if name == "topk" {
				report.SetGradCodec(transport.CompressTopK)
			}
			if name == "rank1" {
				_, reports := commReports(1)
				report = reports[0]
			}
			frame, err := transport.EncodeBinary(report)
			if err != nil {
				b.Fatal(err)
			}
			tx, rx := loopback(b)
			raw := 0
			for i := range report.NumGrads() {
				raw += 4 * report.GradLen(i)
			}
			sent := make(chan error, 1)
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			b.ResetTimer()
			go func() {
				var err error
				for i := 0; i < b.N && err == nil; i++ {
					_, err = tx.Write(frame)
				}
				sent <- err
			}()
			tok := &tokenState{done: true}
			co.tokens = []*tokenState{tok}
			for i := 0; i < b.N; i++ {
				m, err := rx.Recv()
				if err != nil {
					b.Fatal(err)
				}
				tok.report, co.folded = m, 0
				co.fold()
				for i := range co.runs {
					co.runs[i].reset() // one token's run; the barrier is not timed
				}
			}
			if err := <-sent; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkBarrierFold is one train-comm iteration's rank-1 fold: 16
// one-row tokens' reports taken into the sum by fold, in the event loop,
// then the barrier's step, which adds the pending runs over the kernel
// pool a tile at a time, takes the optimizer step and clears the tile.
// momentum-0 is train-comm's own step: no velocity, and the weight
// gradients, which only ever arrive as factors, are folded on the
// bands' own tiles; with momentum 0.9 the velocity is read and written
// too. It reports the event loop's cost per report (report-µs) and the
// barrier's (barrier-ms).
func BenchmarkBarrierFold(b *testing.B) {
	for _, momentum := range []float32{0, 0.9} {
		b.Run(fmt.Sprintf("momentum-%v", momentum), func(b *testing.B) {
			const k = 16
			net, reports := commReports(k)
			co, err := NewCoordinator(net, Config{Workers: 2, TotalBatch: k, TokenBatch: 1, Iterations: 1, LR: 1e-4, Momentum: momentum})
			if err != nil {
				b.Fatal(err)
			}
			co.initFold()
			co.tokens = make([]*tokenState, k)
			var inLoop, barrier time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for seq := range co.tokens {
					co.tokens[seq] = &tokenState{done: true, report: reports[seq]}
				}
				co.folded = 0
				t0 := time.Now()
				co.fold()
				t1 := time.Now()
				co.step()
				inLoop += t1.Sub(t0)
				barrier += time.Since(t1)
			}
			b.ReportMetric(float64(inLoop.Microseconds())/float64(b.N*k), "report-µs")
			b.ReportMetric(float64(barrier.Microseconds())/1e3/float64(b.N), "barrier-ms")
		})
	}
}

// BenchmarkIterStart is the coordinator's iter-start fan-out of the
// train-comm model to two workers over loopback TCP: one op is one
// broadcast, from the live parameter tensors, returning once both conns
// have written it. A reader goroutine per socket drains the bytes
// without decoding them, so only the coordinator's side is timed. MB/s counts the parameter bytes
// of one broadcast.
func BenchmarkIterStart(b *testing.B) {
	net, _ := commNet()
	co, err := NewCoordinator(net, Config{Workers: 2, TotalBatch: 64, TokenBatch: 1, Iterations: 1, LR: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	co.it = 1 // every frame the same size
	params := 0
	var views [][]float32
	for _, p := range net.Params() {
		params += 4 * p.Len()
		views = append(views, p.Data)
	}
	frame, err := transport.EncodeBinary(&transport.Message{Kind: transport.KindIterStart, Iter: co.it, Params: views})
	if err != nil {
		b.Fatal(err)
	}
	received := make(chan error, 2)
	for wid := range 2 {
		raw, conn := loopback(b)
		co.workers = append(co.workers, &workerState{wid: wid, conn: conn, alive: true})
		go func() {
			_, err := io.CopyN(io.Discard, raw, int64(b.N)*int64(len(frame)))
			received <- err
		}()
	}
	b.SetBytes(int64(params))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.broadcast()
	}
	requireClean(b, co.res, nil)
	for range 2 {
		if err := <-received; err != nil {
			b.Fatal(err)
		}
	}
}

package rt

import (
	"io"
	"net"
	"testing"

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
// report: Recv, which reads and decodes the frame, then fold, which adds
// it into the accumulators and releases it. A goroutine writes the
// report's frame, encoded once beforehand, to the socket all along, so
// the worker's encode is not timed. exact decodes to views of the frame
// and folds through AddScaled; topk decodes to sections that view the
// frame and folds a scaled add at each kept index. MB/s counts the dense
// gradient bytes a report stands for.
func BenchmarkFoldReport(b *testing.B) {
	for _, codec := range []transport.Compression{transport.CompressExact, transport.CompressTopK} {
		b.Run(codec.String(), func(b *testing.B) {
			net, grads := commNet()
			co, err := NewCoordinator(net, Config{Workers: 1, TotalBatch: 64, TokenBatch: 1, Iterations: 1, LR: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			co.acc = zerosLike(net.Params())
			co.frac = 1.0 / 64
			report := &transport.Message{Kind: transport.KindReport, Token: transport.TokenInfo{Hi: 1}, Grads: grads}
			report.SetGradCodec(codec)
			frame, err := transport.EncodeBinary(report)
			if err != nil {
				b.Fatal(err)
			}
			tx, rx := loopback(b)
			raw := 0
			for _, g := range grads {
				raw += 4 * len(g)
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
			}
			if err := <-sent; err != nil {
				b.Fatal(err)
			}
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
		if err := co.broadcast(); err != nil {
			b.Fatal(err)
		}
	}
	for range 2 {
		if err := <-received; err != nil {
			b.Fatal(err)
		}
	}
}

package rt

import (
	"testing"
	"time"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

// BenchmarkSchedSession times a session in the shape of the regression
// benchmark's train-sched workload: two workers over loopback TCP with
// the binary codec, an MLP 16-32-4, and 32 two-sample tokens per
// iteration. Compute is a small part of a token here, so the figure is
// the request→assign→report path: the scheduler's selection, the assign
// and report frames, and the writes that carry them. One op is one BSP
// iteration; tok/s counts tokens over the whole timed session.
func BenchmarkSchedSession(b *testing.B) {
	net := func() *minidnn.Network { return minidnn.NewMLP(5051, 16, 32, 4) }
	ds := minidnn.SyntheticBlobs(5052, 256, 16, 4)
	cfg := Config{Workers: 2, TotalBatch: 64, TokenBatch: 2, Iterations: b.N, LR: 0.05}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	errs := make(chan error, cfg.Workers)
	conns := make([]transport.Conn, cfg.Workers)
	for wid := range conns {
		client, err := transport.Dial(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		if conns[wid], err = l.Accept(); err != nil {
			b.Fatal(err)
		}
		defer conns[wid].Close()
		w := NewWorker(wid, net(), ds, cfg)
		go func() { errs <- w.Run(client) }()
	}
	co, err := NewCoordinator(net(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	res, err := co.Run(conns)
	elapsed := time.Since(start)
	b.StopTimer()
	requireClean(b, res, err)
	for range conns {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*cfg.tokensPerIter())/elapsed.Seconds(), "tok/s")
}

package rt

import (
	"strings"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// TestBroadcastEncodesOncePerIteration is the wire-path acceptance
// check: over the binary TCP codec, the coordinator serializes each
// iteration's parameter broadcast exactly once no matter how many
// workers receive it, and the session stays bit-identical to
// Sequential.
func TestBroadcastEncodesOncePerIteration(t *testing.T) {
	const workers, iterations = 4, 3
	cfg := Config{
		Workers: workers, TotalBatch: 32, TokenBatch: 4,
		Iterations: iterations, LR: 0.1,
	}
	seed := func() *minidnn.Network { return minidnn.NewMLP(1, 8, 16, 3) }
	ds := minidnn.SyntheticBlobs(2, 32, 8, 3)

	reg := obs.NewRegistry()
	coCfg := cfg
	coCfg.Metrics = reg

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	serverConns := make([]transport.Conn, workers)
	acceptErr := make(chan error, 1)
	go func() {
		for i := range serverConns {
			c, err := l.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			serverConns[i] = c
		}
		acceptErr <- nil
	}()

	workerErrs := make(chan error, workers)
	for wid := 0; wid < workers; wid++ {
		wid := wid
		go func() {
			c, err := transport.Dial(l.Addr())
			if err != nil {
				workerErrs <- err
				return
			}
			defer c.Close()
			workerErrs <- NewWorker(wid, seed(), ds, cfg).Run(c)
		}()
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	co, err := NewCoordinator(seed(), coCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(serverConns)
	requireClean(t, res, err)
	for i := 0; i < workers; i++ {
		if err := <-workerErrs; err != nil {
			t.Fatal(err)
		}
	}

	// Bit-identical to the sequential reference under the binary codec.
	want, err := Sequential(seed(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Params {
		if !res.Params[i].Equal(want.Params[i]) {
			t.Fatalf("parameter tensor %d differs from Sequential under the binary codec", i)
		}
	}

	// The encode-once property: iter-start frames were serialized once
	// per iteration, not once per worker — while every worker decoded
	// its own copy.
	var iterStartEncodes, iterStartDecodes int64
	for labels, v := range reg.CounterValues(transport.MetricCodecOps) {
		if !strings.Contains(labels, "iter-start") {
			continue
		}
		switch {
		case strings.Contains(labels, "encode"):
			iterStartEncodes += v
		case strings.Contains(labels, "decode"):
			iterStartDecodes += v
		}
	}
	if iterStartEncodes != iterations {
		t.Fatalf("iter-start encoded %d times for %d iterations × %d workers; broadcast cache should encode once per iteration",
			iterStartEncodes, iterations, workers)
	}
	if iterStartDecodes != 0 {
		// Workers run with their own (nil) registry; only the
		// coordinator side feeds reg, and it never decodes iter-start.
		t.Fatalf("coordinator registry saw %d iter-start decodes, want 0", iterStartDecodes)
	}
}

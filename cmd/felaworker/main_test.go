package main

import (
	"strings"
	"testing"
	"time"

	"fela/internal/elastic"
	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// fixedWorker is a fixed-wid worker on addr with the flags' defaults.
func fixedWorker(addr string, wid int) workerOpts {
	return workerOpts{addr: addr, wid: wid, retries: 50, drainAfter: -1}
}

// serveSession coordinates felaserver's single session for iters
// iterations over conns, elastic with joiner admitted first if one is
// given, and checks it ends bit-identical to the sequential reference.
func serveSession(t *testing.T, iters int, joiner transport.Conn, conns ...transport.Conn) *rt.Result {
	t.Helper()
	spec, err := jobs.NormalizeSpec(transport.JobSpec{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	mk, _, err := jobs.BuildSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := jobs.RTConfig(spec, len(conns))
	if joiner != nil {
		if cfg.Elastic, err = elastic.NewController(elastic.Config{MaxWorkers: len(conns) + 1}); err != nil {
			t.Fatal(err)
		}
		cfg.WorkerTimeout = 5 * time.Second
	}
	co, err := rt.NewCoordinator(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if joiner != nil && co.Admit(joiner) != nil {
		t.Fatal("elastic session refused the joiner")
	}
	res, err := co.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := jobs.Reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(ref.Params, res.Params) {
		t.Fatal("session diverged from the sequential reference")
	}
	return res
}

// healthFromStatus backs the /healthz endpoint of a fixed-wid worker:
// healthy while training, 503 once the worker announces a graceful
// leave, and healthy when no status has been published yet (startup).
func TestHealthFromStatus(t *testing.T) {
	if err := healthFromStatus(nil); err != nil {
		t.Errorf("nil status: got %v, want healthy", err)
	}
	if err := healthFromStatus(&rt.WorkerStatus{WID: 3}); err != nil {
		t.Errorf("running worker: got %v, want healthy", err)
	}
	err := healthFromStatus(&rt.WorkerStatus{WID: 3, Draining: true})
	if err == nil {
		t.Fatal("draining worker: got nil, want error (503)")
	}
}

// TestPoolRefusesCompression: pool jobs train exact, so `felaworker
// -pool -compress <lossy>` must fail naming the mode, before it dials,
// instead of serving jobs and ignoring the codec.
func TestPoolRefusesCompression(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, c := range []transport.Compression{transport.CompressFP16, transport.CompressInt8, transport.CompressTopK} {
		done := make(chan error, 1)
		go func() {
			done <- run(workerOpts{addr: l.Addr(), retries: 1, drainAfter: -1, pool: true, compress: c.String()})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "-pool") || !strings.Contains(err.Error(), c.String()) {
				t.Errorf("-compress %v: run returned %v, want an error naming -pool and the codec", c, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("-compress %v accepted: run is serving the pool", c)
		}
	}
}

// TestReconnectSurvivesCoordinatorRestart: with -reconnect, a fixed-wid
// worker outlives its coordinator. The first incarnation accepts the
// registration and dies (connection closed, as a crashed felaserver
// would); the worker must re-dial, re-register with a fresh replica,
// and complete the session the second incarnation serves.
func TestReconnectSurvivesCoordinatorRestart(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr()

	workerDone := make(chan error, 1)
	go func() {
		o := fixedWorker(addr, 0)
		o.reconnect = true
		workerDone <- run(o)
	}()

	// Incarnation one: take the registration, then die.
	c1, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := c1.Recv(); err != nil || m.Kind != transport.KindRegister {
		t.Fatalf("first contact: msg %v err %v, want register", m, err)
	}
	c1.Close()

	// Incarnation two: serve a real session to completion. The worker's
	// replica must arrive fresh — the coordinator verifies the result
	// bitwise against the sequential reference.
	c2, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	serveSession(t, 3, nil, c2)
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after the session completed")
	}
}

// TestWorkerExitsWhenServerGoes: without -reconnect, a fixed-wid worker
// whose coordinator goes away mid-session exits cleanly (nil): a
// fault-tolerant coordinator closes the connections of workers it has
// declared dead, and that is not a worker-side error.
func TestWorkerExitsWhenServerGoes(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- run(fixedWorker(l.Addr(), 2)) }()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := c.Recv(); err != nil || m.Kind != transport.KindRegister || m.WID != 2 {
		t.Fatalf("first contact: msg %v err %v, want register from wid 2", m, err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker returned %v, want a clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after its coordinator went away")
	}
}

// TestJoinEntersElasticSession: -join dials an elastic session, is
// admitted at a barrier, trains its share of the tokens and exits
// cleanly when the session completes.
func TestJoinEntersElasticSession(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	exits := make(chan error, 2)
	conns := make([]transport.Conn, 2)
	for i, o := range []workerOpts{fixedWorker(l.Addr(), 0), {addr: l.Addr(), join: true, retries: 50, drainAfter: -1}} {
		go func() { exits <- run(o) }()
		if conns[i], err = l.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	res := serveSession(t, 6, conns[1], conns[0])
	if len(res.TokensByWorker) != 2 || res.TokensByWorker[1] == 0 {
		t.Fatalf("tokens by worker %v, want the joiner (wid 1) to have trained", res.TokensByWorker)
	}
	for range conns {
		if err := <-exits; err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	}
}

// TestJoinRefusesReconnect: -join with -reconnect is a configuration
// error, refused before the worker dials.
func TestJoinRefusesReconnect(t *testing.T) {
	o := fixedWorker("127.0.0.1:1", 0)
	o.join, o.reconnect, o.retries = true, true, 1
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-reconnect") {
		t.Fatalf("run returned %v, want an error naming -reconnect", err)
	}
}

package rt

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

func mlp() *minidnn.Network { return minidnn.NewMLP(42, 8, 16, 4) }

func blobs() *minidnn.Dataset { return minidnn.SyntheticBlobs(7, 128, 8, 4) }

func baseCfg() Config {
	return Config{Workers: 4, TotalBatch: 64, TokenBatch: 8, Iterations: 6, LR: 0.05}
}

// requireClean fails the test unless a session that injects no fault
// ran clean: no error and no recorded fault. A worker fault is a death
// verdict, not an error from Run, so only the result shows it.
func requireClean(t testing.TB, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) > 0 || len(res.DeadWorkers) > 0 {
		t.Fatalf("a session that injects no fault recorded faults %v, dead workers %v", res.Faults, res.DeadWorkers)
	}
}

// TestBitwiseEquivalence is the reproducibility claim (Table II): the
// distributed token-scheduled run produces parameters bit-identical to
// sequential SGD.
func TestBitwiseEquivalence(t *testing.T) {
	cfg := baseCfg()
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, dist.Params) {
		t.Fatal("distributed parameters differ from sequential")
	}
	if len(seq.Losses) != len(dist.Losses) {
		t.Fatal("loss history length mismatch")
	}
	for i := range seq.Losses {
		if seq.Losses[i] != dist.Losses[i] {
			t.Fatalf("iteration %d loss %v != %v", i, dist.Losses[i], seq.Losses[i])
		}
	}
}

// TestEquivalenceUnderStragglers: injected sleeps reshuffle which worker
// trains which token but cannot change the result.
func TestEquivalenceUnderStragglers(t *testing.T) {
	cfg := baseCfg()
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Delay = func(iter, wid int) time.Duration {
		if iter%cfg.Workers == wid {
			return 20 * time.Millisecond
		}
		return 0
	}
	dist, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, dist.Params) {
		t.Fatal("straggler run changed the training result")
	}
	if dist.Steals == 0 {
		t.Error("expected helpers to steal from the straggler's shard")
	}
}

// TestEquivalenceAcrossWorkerCounts: 1, 2 and 8 workers all match the
// sequential reference.
func TestEquivalenceAcrossWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := baseCfg()
		cfg.Workers = workers
		seq, err := Sequential(mlp(), blobs(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := Train(mlp, blobs(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !minidnn.ParamsEqual(seq.Params, dist.Params) {
			t.Fatalf("%d workers: parameters differ", workers)
		}
	}
}

func TestLossDecreases(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 30
	cfg.LR = 0.1
	res, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first*0.7 {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

func TestWorkConservation(t *testing.T) {
	cfg := baseCfg()
	res, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.TokensByWorker {
		total += n
	}
	want := cfg.Iterations * cfg.TotalBatch / cfg.TokenBatch
	if total != want {
		t.Fatalf("tokens trained = %d, want %d", total, want)
	}
}

// TestStragglerTrainsLess: a persistent straggler pulls fewer tokens —
// the reactive mitigation of §III-C, observable in real time.
func TestStragglerTrainsLess(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 8
	cfg.Delay = func(iter, wid int) time.Duration {
		if wid == 0 {
			return 30 * time.Millisecond
		}
		return 0
	}
	res, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fastest := 0
	for _, n := range res.TokensByWorker[1:] {
		if n > fastest {
			fastest = n
		}
	}
	if res.TokensByWorker[0] >= fastest {
		t.Errorf("straggler trained %d tokens, fastest other %d — no rebalancing",
			res.TokensByWorker[0], fastest)
	}
}

func TestTrainOverTCP(t *testing.T) {
	cfg := baseCfg()
	cfg.Workers = 3
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for wid := 0; wid < cfg.Workers; wid++ {
		wid := wid
		go func() {
			conn, err := transport.Dial(l.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			w := NewWorker(wid, mlp(), blobs(), cfg)
			if err := w.Run(conn); err != nil {
				t.Error(err)
			}
		}()
	}
	conns := make([]transport.Conn, cfg.Workers)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(conns)
	requireClean(t, res, err)
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		t.Fatal("TCP run differs from sequential")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, TotalBatch: 64, TokenBatch: 8, Iterations: 1, LR: 0.1},
		{Workers: 2, TotalBatch: 60, TokenBatch: 8, Iterations: 1, LR: 0.1},
		{Workers: 2, TotalBatch: 64, TokenBatch: 8, Iterations: 0, LR: 0.1},
		{Workers: 2, TotalBatch: 64, TokenBatch: 8, Iterations: 1, LR: 0},
	}
	for i, cfg := range bad {
		if _, err := Train(mlp, blobs(), cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// TestConfigRejectsUntrainableRates: a learning rate that is not finite
// and positive, or a momentum that is not finite and non-negative, cannot
// train, so Train, Sequential and NewCoordinator refuse it up front
// instead of returning NaN losses.
func TestConfigRejectsUntrainableRates(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name         string
		lr, momentum float32
	}{
		{"lr-nan", nan, 0},
		{"lr+inf", inf, 0},
		{"lr-inf", -inf, 0},
		{"lr-negative", -0.05, 0},
		{"momentum-nan", 0.05, nan},
		{"momentum+inf", 0.05, inf},
		{"momentum-negative", 0.05, -0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.LR, cfg.Momentum = tc.lr, tc.momentum
			if _, err := Train(mlp, blobs(), cfg); err == nil {
				t.Error("Train accepted the config")
			}
			if _, err := Sequential(mlp(), blobs(), cfg); err == nil {
				t.Error("Sequential accepted the config")
			}
			if _, err := NewCoordinator(mlp(), cfg); err == nil {
				t.Error("NewCoordinator accepted the config")
			}
		})
	}
	cfg := baseCfg()
	cfg.Momentum = 0.9
	if err := cfg.validate(); err != nil {
		t.Fatalf("finite positive rates rejected: %v", err)
	}
}

func TestCoordinatorConnCountMismatch(t *testing.T) {
	co, err := NewCoordinator(mlp(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(nil); err == nil {
		t.Error("expected error for missing connections")
	}
}

// TestCNNEquivalence: the real CNN path (conv + pool) is also
// bit-reproducible through the token scheduler.
func TestCNNEquivalence(t *testing.T) {
	mkCNN := func() *minidnn.Network { return minidnn.NewCNN(11, 1, 6, 6, 3, 12, 3) }
	ds := minidnn.SyntheticImages(13, 96, 1, 6, 6, 3)
	cfg := Config{Workers: 3, TotalBatch: 48, TokenBatch: 8, Iterations: 5, LR: 0.03}
	seq, err := Sequential(mkCNN(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Train(mkCNN, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, dist.Params) {
		t.Fatal("CNN distributed training diverged from sequential")
	}
	if dist.Losses[len(dist.Losses)-1] >= dist.Losses[0] {
		t.Error("CNN loss did not decrease")
	}
}

// TestWorkerFailureSurfaces: a worker connection dying mid-session
// with no deadline set is a death verdict, not a hang: the session ends
// on the survivor and the result names the dead worker.
func TestWorkerFailureSurfaces(t *testing.T) {
	cfg := baseCfg()
	cfg.Workers = 2
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s0, c0 := transport.Pair()
	s1, c1 := transport.Pair()
	// Worker 0 starts training only once worker 1 is dead, so the session
	// cannot end before the coordinator sees the death: iteration 1's
	// iter-start to worker 1 fails at the latest.
	dead := make(chan struct{})
	w0 := cfg
	w0.Delay = func(iter, _ int) time.Duration {
		if iter == 0 {
			<-dead
		}
		return 0
	}
	go NewWorker(0, mlp(), blobs(), w0).Run(c0)
	go func() {
		// Worker 1 registers, then dies.
		c1.Send(&transport.Message{Kind: transport.KindRegister, WID: 1})
		m, _ := c1.Recv() // iter-start
		_ = m
		c1.Close()
		close(dead)
	}()
	done := make(chan sessionOutcome, 1)
	go func() {
		res, err := co.Run([]transport.Conn{s0, s1})
		done <- sessionOutcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !slices.Equal(out.res.DeadWorkers, []int{1}) || len(out.res.Faults) != 1 {
			t.Fatalf("DeadWorkers %v, faults %v: want worker 1's death alone", out.res.DeadWorkers, out.res.Faults)
		}
	case <-timeAfter(5):
		t.Fatal("coordinator hung on dead worker")
	}
}

// TestTrainFailsLoudOnFault: Train's in-process workers never fail
// legitimately, so a straggler shot by a WorkerTimeout shorter than its
// token makes Train return an error naming the fault, not the result.
// Worker 0 requests its first token only once worker 1 holds one, so
// worker 1 is certain to hold a token past WorkerTimeout.
func TestTrainFailsLoudOnFault(t *testing.T) {
	cfg := baseCfg()
	cfg.Workers = 2
	cfg.WorkerTimeout = 100 * time.Millisecond
	holding := make(chan struct{})
	var once sync.Once
	cfg.TokenDelay = func(iter, wid int) time.Duration {
		if wid == 1 {
			once.Do(func() { close(holding) })
			return time.Second
		}
		return 0
	}
	cfg.Delay = func(iter, wid int) time.Duration {
		if wid == 0 && iter == 0 {
			select {
			case <-holding:
			case <-time.After(10 * time.Second):
			}
		}
		return 0
	}
	res, err := Train(mlp, blobs(), cfg)
	if err == nil {
		t.Fatalf("Train returned a result with faults %v", res.Faults)
	}
	if !strings.Contains(err.Error(), "worker 1: timeout") {
		t.Fatalf("Train error %q does not name worker 1's timeout", err)
	}
}

func timeAfter(seconds int) <-chan time.Time {
	return time.After(time.Duration(seconds) * time.Second)
}

// TestMomentumEquivalence: momentum SGD keeps the bitwise guarantee —
// the velocity state lives at the coordinator.
func TestMomentumEquivalence(t *testing.T) {
	cfg := baseCfg()
	cfg.Momentum = 0.9
	cfg.Iterations = 10
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, dist.Params) {
		t.Fatal("momentum run diverged from sequential")
	}
	// Momentum changes the trajectory vs plain SGD.
	plain := baseCfg()
	plain.Iterations = 10
	seqPlain, err := Sequential(mlp(), blobs(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if minidnn.ParamsEqual(seq.Params, seqPlain.Params) {
		t.Fatal("momentum had no effect")
	}
}

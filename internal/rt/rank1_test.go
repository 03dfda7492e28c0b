package rt

// Batch-1 sessions. On a one-row token a worker reports each dense
// weight gradient as its rank-1 factors, x and δ, and the coordinator
// folds their outer product in one pass with the bits of the dense
// fold. These sessions hold that path to Sequential across the features
// a session combines — momentum, a dead window holder, an elastic join
// and drain, a resume from a checkpoint, reports parked behind a gap —
// in process and over loopback TCP, and hold the coordinator to
// refusing factors that do not fit.

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

// batch1Cfg is a session of one-row tokens: 24 a iteration on 3 workers.
func batch1Cfg() Config {
	return Config{Workers: 3, TotalBatch: 24, TokenBatch: 1, Iterations: 4, LR: 0.05}
}

// blobCNN is a CNN that reads blobs()'s 8 features as a 2×2×2 image:
// conv, ReLU, pool, then two dense layers with a ReLU between.
func blobCNN() *minidnn.Network { return minidnn.NewCNN(11, 2, 2, 2, 3, 12, 4) }

// rank1Sent wraps a worker's conn and counts the reports it sends with
// rank-1 sections.
type rank1Sent struct {
	transport.Conn
	n *atomic.Int64
}

func (c rank1Sent) Send(m *transport.Message) error {
	if m.Kind == transport.KindReport && m.Rank1() != nil {
		c.n.Add(1)
	}
	return c.Conn.Send(m)
}

// countRank1 returns a runFoldSession wrap that counts rank-1 reports
// into n.
func countRank1(n *atomic.Int64) func(int, transport.Conn) transport.Conn {
	return func(_ int, c transport.Conn) transport.Conn { return rank1Sent{c, n} }
}

// TestBatch1Equivalence: batch-1 sessions of an MLP, the same with
// momentum, an MLP whose hidden rows take the AVX2 tile's vectors, a
// CNN whose dense layers sit above a ReLU and a pool, and an MLP whose
// barrier folds a run over the kernel pool with momentum through the
// tiled step, end bit-identical to Sequential, every report carrying
// its weight gradients as factors.
func TestBatch1Equivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		model    func() *minidnn.Network
		momentum float32
	}{
		{"mlp", mlp, 0},
		{"mlp-momentum", mlp, 0.9},
		{"wide-mlp", wideMLP, 0},
		{"cnn", blobCNN, 0},
		{"pool-mlp-momentum", poolMLP, 0.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			transports(t, func(t *testing.T, pair pairFunc) {
				cfg := batch1Cfg()
				cfg.Momentum = tc.momentum
				var n atomic.Int64
				res, _, err := runFoldSessionOn(t, tc.model, cfg, pair, countRank1(&n))
				requireClean(t, res, err)
				assertMatchesSequentialOn(t, tc.model, cfg, res)
				if want := int64(cfg.Iterations * cfg.tokensPerIter()); n.Load() != want {
					t.Fatalf("%d of %d reports carried rank-1 factors", n.Load(), want)
				}
			})
		})
	}
}

// TestChaosBatch1FoldParked is TestChaosFoldTCPParkedView for one-row
// tokens: reports arrive out of seq order and wait parked with their
// factors, and no report received meanwhile is decoded into a parked
// one's buffer.
func TestChaosBatch1FoldParked(t *testing.T) {
	transports(t, func(t *testing.T, pair pairFunc) {
		cfg := batch1Cfg()
		slowWorker0(&cfg)
		res, log, err := runFoldSession(t, cfg, pair, nil)
		requireClean(t, res, err)
		assertMatchesSequential(t, cfg, res)
		if log.parked() == 0 {
			t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
		}
		log.checkArenas(t)
	})
}

// TestChaosBatch1WindowHolderDies is TestChaosWindowHolderDies on
// one-row tokens.
func TestChaosBatch1WindowHolderDies(t *testing.T) { windowHolderDies(t, 1) }

// TestChaosBatch1ElasticJoinDrain: one-row tokens through a barrier
// that admits a joiner and completes a drain, in process and over TCP.
func TestChaosBatch1ElasticJoinDrain(t *testing.T) {
	transports(t, func(t *testing.T, pair pairFunc) {
		pol := &scriptedPolicy{inner: admitAllPolicy{}, admitAt: map[int]int{1: 1}}
		cfg := elasticCfg(pol, 4)
		cfg.TokenBatch = 1
		cfg.TotalBatch = 24
		cfg.Drain = func(iter, wid int) bool { return wid == 0 && iter >= 1 }
		delayWIDs(&cfg, 1)
		awaitLeave(t, &cfg, 0)
		res := newElasticHarness(t, cfg, 1, pair).run(t)
		assertElasticOutcome(t, cfg, res, []string{"join:2", "leave:0"})
	})
}

// TestChaosBatch1Resume: a batch-1 session with momentum stops right
// after the checkpoint of iteration 1, and a fresh coordinator and
// fleet resume from it to Sequential's parameters and losses.
func TestChaosBatch1Resume(t *testing.T) { batch1Resume(t, mlp) }

// batch1Resume is TestChaosBatch1Resume on replicas built by model.
func batch1Resume(t *testing.T, model func() *minidnn.Network) {
	transports(t, func(t *testing.T, pair pairFunc) {
		cfg := batch1Cfg()
		cfg.Momentum = 0.9
		errStop := errors.New("stopped after the checkpoint")
		var resume *Resume
		first := cfg
		first.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
			if iter < 1 {
				return nil
			}
			resume = &Resume{Iter: iter, Params: cloneFloats(params), Vel: cloneFloats(vel), Losses: slices.Clone(losses)}
			return errStop
		}
		if _, _, err := runFoldSessionOn(t, model, first, pair, nil); !errors.Is(err, errStop) {
			t.Fatalf("first session ended with %v, want the stop after the checkpoint", err)
		}
		if resume == nil {
			t.Fatal("no checkpoint was taken")
		}
		cfg.Resume = resume
		res, _, err := runFoldSessionOn(t, model, cfg, pair, nil)
		requireClean(t, res, err)
		assertMatchesSequentialOn(t, model, cfg, res)
	})
}

func cloneFloats(ss [][]float32) [][]float32 {
	out := make([][]float32, len(ss))
	for i, s := range ss {
		out[i] = slices.Clone(s)
	}
	return out
}

// TestChaosReportRank1Violations: factors for a token of more than one
// row, factors whose lengths multiply to the gradient's but whose shape
// is swapped, and factors whose product is short of the gradient are
// protocol violations by their sender, which the session tolerates (see
// assertViolatorDies).
func TestChaosReportRank1Violations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		v     violation
		batch int
	}{
		{"many-rows", reportRank1Rows, 8},
		{"shape", reportRank1Shape, 1},
		{"length", reportRank1Length, 1},
	} {
		t.Run(tc.name+"/tolerant", func(t *testing.T) {
			cfg := chaosCfg()
			cfg.TokenBatch = tc.batch
			assertViolatorDies(t, cfg, tc.v)
		})
	}
}

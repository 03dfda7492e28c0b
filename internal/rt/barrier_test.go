package rt

// The barrier fold. fold copies a rank-1 section's factors onto the
// section's run and releases the report; the barrier's step adds each
// run over the kernel pool a tile at a time, takes the optimizer step on
// the tile and clears it. A dense or top-k add to a section with a
// pending run adds the run first. These tests hold that path to the
// per-token fold and Sequential, bit for bit: a direct fold of mixed,
// out-of-order reports, and sessions on a model whose run is large
// enough for the kernel pool — mixed reporters, reports parked behind a
// gap, a reporter that dies with its factors pending, and a resume
// across a barrier (momentum on that model is a TestBatch1Equivalence
// case).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fela/internal/minidnn"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// poolMLP is an MLP whose second weight gradient, 2048×32, makes a run
// of the 24 one-row tokens of batch1Cfg clear the kernel pool's cutoff:
// the barrier folds it in bands over the pool, two 128-row tiles each,
// its x being ReLU output with zero rows. The first, 8×2048, is folded
// serially a two-row tile at a time.
func poolMLP() *minidnn.Network { return minidnn.NewMLP(42, 8, 2048, 32) }

// outer is x⊗δ as a one-row token's dense weight gradient is formed.
func outer(x, d []float32) []float32 {
	return tensor.MatMulATInto(nil, tensor.FromSlice(slices.Clone(x), 1, len(x)), tensor.FromSlice(slices.Clone(d), 1, len(d))).Data
}

// sameBits fails unless got and want hold the same bit patterns.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for k := range want {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, k, got[k], math.Float32bits(got[k]), want[k], math.Float32bits(want[k]))
		}
	}
}

// TestFoldBarrierMatchesPerToken folds reports of mixed kinds, arriving
// out of seq order, into a coordinator's sum and takes the barrier's
// step with momentum, then holds the parameters and the velocity to the
// per-token fold — each report added densely in seq order — and
// applyUpdate, bit for bit. Seqs 0, 1, 3 and 5–8 are rank-1, so seq 2's
// dense report and seq 4's top-k one each add a pending run before
// their own, and the barrier adds seqs 5–8 to the first weight gradient
// over the kernel pool and to the second (nine columns: a vector and a
// tail) serially. Every report is decoded from its frame, so it holds
// pooled buffers: it must be released the moment it is folded, and not
// before. After the step the sum is cleared to +0 and no run is left.
func TestFoldBarrierMatchesPerToken(t *testing.T) {
	model := func() *minidnn.Network { return minidnn.NewMLP(5, 600, 512, 9) }
	cfg := Config{Workers: 3, TotalBatch: 9, TokenBatch: 1, Iterations: 1, LR: 0.05, Momentum: 0.9}
	rng := rand.New(rand.NewSource(19))
	values := func(n int, zeros bool) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
			if zeros && rng.Intn(5) == 0 {
				s[i] = []float32{0, float32(math.Copysign(0, -1))}[rng.Intn(2)]
			}
		}
		return s
	}
	shapes := model().Params()
	kinds := []string{"rank1", "rank1", "dense", "rank1", "topk", "rank1", "rank1", "rank1", "rank1"}
	var frames [][]byte
	var dense [][][]float32 // each token's gradients, as Sequential adds them
	for seq, kind := range kinds {
		m := &transport.Message{Kind: transport.KindReport, Token: transport.TokenInfo{ID: seq, Seq: seq, Lo: seq, Hi: seq + 1}}
		var rank1 []transport.Rank1Section
		var g [][]float32
		for _, p := range shapes {
			if kind == "rank1" && p.Dims() == 2 {
				x, d := values(p.Shape[0], true), values(p.Shape[1], false)
				rank1 = append(rank1, transport.Rank1Section{X: x, D: d})
				m.Grads = append(m.Grads, nil)
				g = append(g, outer(x, d))
				continue
			}
			v := values(p.Len(), true)
			rank1 = append(rank1, transport.Rank1Section{})
			m.Grads = append(m.Grads, v)
			g = append(g, v)
		}
		m.SetRank1(rank1)
		if kind == "topk" {
			m.SetGradCodec(transport.CompressTopK)
		}
		frame, err := transport.EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		dense = append(dense, g)
	}
	decode := func(seq int) *transport.Message {
		m, err := transport.DecodeBinary(frames[seq])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	vel0 := make([][]float32, len(shapes))
	for i, p := range shapes {
		vel0[i] = values(p.Len(), false)
	}

	// The reference: Sequential's fold, a token at a time, and its step.
	ref := model()
	refVel, refAcc := zerosLike(ref.Params()), zerosLike(ref.Params())
	frac := float32(cfg.TokenBatch) / float32(cfg.TotalBatch)
	for seq, g := range dense {
		if kinds[seq] == "topk" {
			for i, s := range decode(seq).TopK() {
				s.AddScaledTo(refAcc[i].Data, frac)
			}
			continue
		}
		for i, gi := range g {
			v := vector(gi)
			refAcc[i].AddScaled(&v, frac)
		}
	}
	if err := InstallFlat(refVel, vel0); err != nil {
		t.Fatal(err)
	}
	applyUpdate(ref, refVel, refAcc, cfg)

	net := model()
	co, err := NewCoordinator(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.initFold()
	if err := InstallFlat(co.vel, vel0); err != nil {
		t.Fatal(err)
	}
	co.tokens = make([]*tokenState, len(kinds))
	for seq := range co.tokens {
		co.tokens[seq] = &tokenState{}
	}
	msgs := make([]*transport.Message, len(kinds))
	for _, seq := range []int{3, 0, 5, 1, 2, 8, 4, 7, 6} {
		msgs[seq] = decode(seq)
		co.tokens[seq].done, co.tokens[seq].report = true, msgs[seq]
		co.fold()
		for s, m := range msgs {
			released := m != nil && m.Grads == nil && m.Rank1() == nil && m.TopK() == nil
			if s < co.folded && !released {
				t.Fatalf("after seq %d arrived: folded seq %d's report still holds its buffers", seq, s)
			}
			if s >= co.folded && m != nil && released {
				t.Fatalf("after seq %d arrived: seq %d's report, parked behind seq %d, was released", seq, s, co.folded)
			}
		}
	}
	if co.folded != len(kinds) {
		t.Fatalf("%d of %d tokens folded", co.folded, len(kinds))
	}
	if k := len(co.runs[0].xs); k != 4 {
		t.Fatalf("the first weight gradient's run holds %d terms at the barrier, want seqs 5–8", k)
	}
	co.step()
	for i, p := range net.Params() {
		sameBits(t, fmt.Sprintf("param %d", i), p.Data, ref.Params()[i].Data)
		sameBits(t, fmt.Sprintf("velocity %d", i), co.vel[i].Data, refVel[i].Data)
		sameBits(t, fmt.Sprintf("sum %d after the barrier", i), co.acc[i].Data, make([]float32, p.Len()))
		if len(co.runs[i].xs) != 0 {
			t.Fatalf("section %d: %d terms left pending after the barrier", i, len(co.runs[i].xs))
		}
	}
}

// oddSeqDense wraps a worker's conn and sends every rank-1 section of
// its reports of odd-seq tokens as the dense product a worker without
// factors would send: whichever worker trains a token, an iteration's
// reports are half factors and half dense.
type oddSeqDense struct{ transport.Conn }

func (c oddSeqDense) Send(m *transport.Message) error {
	if r1 := m.Rank1(); m.Kind == transport.KindReport && r1 != nil && m.Token.Seq%2 == 1 {
		d := *m
		d.Grads = slices.Clone(m.Grads)
		for i, f := range r1 {
			if len(f.X) > 0 {
				d.Grads[i] = outer(f.X, f.D)
			}
		}
		d.SetRank1(nil)
		m = &d
	}
	return c.Conn.Send(m)
}

// unheld wraps a worker's conn and sends every message at once, so a
// conn closed on a later send loses none of the earlier ones.
type unheld struct{ transport.Conn }

func (c unheld) Send(m *transport.Message) error {
	m.SetMore(false)
	return c.Conn.Send(m)
}

// TestChaosBarrierFoldSessions runs one-row sessions of poolMLP, whose
// barrier folds a run over the kernel pool, in process and over
// loopback TCP, and holds each to Sequential bit for bit:
//   - mixed: every worker reports its odd-seq tokens dense, so those
//     reports add the pending runs of the even-seq tokens' factors
//     mid-iteration;
//   - parked: reports arrive out of seq order behind a slow worker 0;
//   - dies-pending: worker 2 dies sending its third report, the factors
//     of its first two pending in the runs, and its held tokens are
//     reassigned.
//
// TestBatch1Equivalence runs poolMLP with momentum through the tiled
// step.
func TestChaosBarrierFoldSessions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Config)
		wrap  func(wid int, c transport.Conn) transport.Conn
		check func(t *testing.T, res *Result, log *arrivalLog, rank1 int64)
	}{
		{
			name: "mixed",
			wrap: func(_ int, c transport.Conn) transport.Conn { return oddSeqDense{c} },
			check: func(t *testing.T, res *Result, _ *arrivalLog, rank1 int64) {
				requireClean(t, res, nil)
				var reports int64
				for _, n := range res.TokensByWorker {
					reports += int64(n)
				}
				// 24 tokens an iteration, seq 0–23: half of each kind.
				if dense := reports - rank1; rank1 != reports/2 || dense != reports/2 || rank1 == 0 {
					t.Fatalf("%d rank-1 and %d dense reports of %d, want half of each", rank1, dense, reports)
				}
			},
		},
		{
			name:  "parked",
			setup: slowWorker0,
			check: func(t *testing.T, res *Result, log *arrivalLog, _ int64) {
				requireClean(t, res, nil)
				if log.parked() == 0 {
					t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
				}
				log.checkArenas(t)
			},
		},
		{
			name: "dies-pending",
			setup: func(cfg *Config) {
				cfg.WorkerTimeout = 400 * time.Millisecond
				throttleHealthy(cfg, 2)
			},
			// Worker 2's sends: register, request, then a report and a
			// request per token, each sent at once; the seventh send is
			// its third report.
			wrap: func(wid int, c transport.Conn) transport.Conn {
				if wid == 2 {
					return unheld{transport.NewFaultConn(c, 1).CloseAfterSends(6)}
				}
				return c
			},
			check: func(t *testing.T, res *Result, _ *arrivalLog, _ int64) {
				if !slices.Equal(res.DeadWorkers, []int{2}) {
					t.Fatalf("DeadWorkers = %v, want [2]", res.DeadWorkers)
				}
				if res.TokensByWorker[2] != 2 {
					t.Fatalf("worker 2 reported %d tokens before it died, want 2", res.TokensByWorker[2])
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			transports(t, func(t *testing.T, pair pairFunc) {
				cfg := batch1Cfg()
				if tc.setup != nil {
					tc.setup(&cfg)
				}
				var n atomic.Int64
				wrap := func(wid int, c transport.Conn) transport.Conn {
					c = rank1Sent{c, &n}
					if tc.wrap != nil {
						c = tc.wrap(wid, c)
					}
					return c
				}
				res, log, err := runFoldSessionOn(t, poolMLP, cfg, pair, wrap)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesSequentialOn(t, poolMLP, cfg, res)
				if tc.check != nil {
					tc.check(t, res, log, n.Load())
				}
			})
		})
	}
}

// TestChaosBarrierFoldResume is TestChaosBatch1Resume on poolMLP: the
// checkpoint is taken once the barrier has folded the runs over the
// kernel pool and cleared the sum.
func TestChaosBarrierFoldResume(t *testing.T) { batch1Resume(t, poolMLP) }

package rt

// Parameter-sized buffers exist only where something reads them: the
// coordinator holds no dense sum for a section every term of which came
// as factors, and no velocity without momentum, while a checkpoint
// still records the zero velocity in the model's shapes. A worker
// refuses an iter-start that does not fit its model instead of
// panicking.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fela/internal/durable"
	"fela/internal/minidnn"
	"fela/internal/transport"
)

// TestCheckpointBytesUnchanged pins the bytes of every checkpoint record
// (durable.AppendCheckpoint) that one-row and dense sessions commit,
// with and without momentum, from the start and resumed from iteration
// 1's checkpoint: a session without momentum records the same zero
// velocity it did when it held one. The hashes are of the records the
// coordinator wrote when every section had a dense sum and a velocity.
// A resume's velocity is still held to the model's sizes.
func TestCheckpointBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      func() Config
		momentum float32
		want     string
	}{
		{"rank1", batch1Cfg, 0, "b2cebd980437601f6e8642265dca55215767b6893eeb9c45e3fce23ebc34b1cb"},
		{"rank1-momentum", batch1Cfg, 0.9, "56808bc60f919bb1fe93e3ede12fd4c2532674927272bda2d347216969699b8c"},
		{"dense", baseCfg, 0, "4c2a55d70fc30aae170ec9f467b2478957abdaaf62d49fbd7657ccd64462d8aa"},
		{"dense-momentum", baseCfg, 0.9, "0b878156a31345441fedec4122b65a127769504ab7f6b4be50544524577530ee"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Momentum = tc.momentum
			cfg.CheckpointEvery = 1
			h := sha256.New()
			var saved []*Resume
			cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
				rec, err := durable.AppendCheckpoint(nil, &durable.Checkpoint{Iter: iter, Params: params, Vel: vel, Losses: losses})
				if err != nil {
					return err
				}
				h.Write(rec)
				saved = append(saved, &Resume{Iter: iter, Params: params, Vel: vel, Losses: losses})
				return nil
			}
			if _, err := Train(mlp, blobs(), cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Resume = saved[1]
			if _, err := Train(mlp, blobs(), cfg); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("checkpoint records hash to %s, want %s", got, tc.want)
			}
			short := slices.Clone(saved[1].Vel)
			short[2] = short[2][1:]
			params := mlp().Params()
			if err := installVel(velocity(params, cfg), params, short); err == nil {
				t.Fatal("a resume whose velocity is a float short was installed")
			}
		})
	}
}

// wideRowMLP's second weight gradient has rows of 4100 floats, wider than
// the barrier's tile: its factor runs are folded into a dense sum.
func wideRowMLP() *minidnn.Network { return minidnn.NewMLP(42, 8, 2, 4100) }

// TestFactorOnlySectionsHoldNoSum runs one-row sessions in process and
// over loopback TCP and checks at every barrier what the
// coordinator holds: a dense sum for the bias sections, which arrive
// dense, none for the weight gradients, which arrive as factors only,
// except where a row is wider than the barrier's tile; a velocity only
// with momentum. Every session ends bit-identical to Sequential.
func TestFactorOnlySectionsHoldNoSum(t *testing.T) {
	for _, tc := range []struct {
		name     string
		model    func() *minidnn.Network
		momentum float32
		summed   []bool // per section: holds a dense sum
	}{
		{"mlp", mlp, 0, []bool{false, true, false, true}},
		{"mlp-momentum", mlp, 0.9, []bool{false, true, false, true}},
		{"wide-rows", wideRowMLP, 0, []bool{false, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			transports(t, func(t *testing.T, pair pairFunc) {
				cfg := batch1Cfg()
				cfg.Momentum = tc.momentum
				cfg.Iterations = 2
				var co *Coordinator
				barriers := 0
				cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
					barriers++
					for i, a := range co.acc {
						if (a != nil) != tc.summed[i] {
							t.Errorf("iteration %d: section %d holds a dense sum: %v, want %v", iter, i, a != nil, tc.summed[i])
						}
					}
					if (co.vel != nil) != (tc.momentum != 0) {
						t.Errorf("iteration %d: velocity held %v with momentum %v", iter, co.vel != nil, tc.momentum)
					}
					for i, v := range vel {
						if len(v) != len(params[i]) {
							t.Errorf("iteration %d: checkpoint velocity %d has %d floats, want %d", iter, i, len(v), len(params[i]))
						}
					}
					return nil
				}
				cfg.CheckpointEvery = 1
				var err error
				if co, err = NewCoordinator(tc.model(), cfg); err != nil {
					t.Fatal(err)
				}
				res, err := co.Run(workerConns(t, tc.model, cfg, pair))
				requireClean(t, res, err)
				if barriers != cfg.Iterations {
					t.Fatalf("%d barriers checked, want %d", barriers, cfg.Iterations)
				}
				assertMatchesSequentialOn(t, tc.model, cfg, res)
			})
		})
	}
}

// workerConns starts cfg.Workers workers on replicas built by model,
// over conns made by pair, and returns the coordinator's ends.
func workerConns(t *testing.T, model func() *minidnn.Network, cfg Config, pair pairFunc) []transport.Conn {
	t.Helper()
	conns := make([]transport.Conn, cfg.Workers)
	for wid := range conns {
		co, w := pair(t)
		conns[wid] = co
		go func() { _ = NewWorker(wid, model(), blobs(), cfg).Run(w) }()
	}
	return conns
}

// TestWorkerRefusesMalformedIterStart sends a registered worker an
// iter-start with one parameter tensor too few, or with a section one
// float short, then an assign. The worker must return a protocol error
// instead of panicking, send nothing after its registration, and train
// no token.
func TestWorkerRefusesMalformedIterStart(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params func(ps [][]float32) [][]float32
	}{
		{"wrong-count", func(ps [][]float32) [][]float32 { return ps[:len(ps)-1] }},
		{"short-section", func(ps [][]float32) [][]float32 {
			ps[2] = ps[2][:len(ps[2])-1]
			return ps
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			transports(t, func(t *testing.T, pair pairFunc) {
				co, wc := pair(t)
				cfg := baseCfg()
				w := NewWorker(0, mlp(), blobs(), cfg)
				done := make(chan error, 1)
				go func() { done <- w.Run(wc) }()
				if m, err := co.Recv(); err != nil || m.Kind != transport.KindRegister {
					t.Fatalf("first message %v (%v), want a register", m, err)
				}
				var ps [][]float32
				for _, p := range mlp().Params() {
					ps = append(ps, p.Data)
				}
				if err := co.Send(&transport.Message{Kind: transport.KindIterStart, Params: tc.params(ps)}); err != nil {
					t.Fatal(err)
				}
				_ = co.Send(&transport.Message{Kind: transport.KindAssign, Token: transport.TokenInfo{Lo: 0, Hi: cfg.TokenBatch}})
				err := <-done
				if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "iter-start") {
					t.Fatalf("worker returned %v, want a protocol error on the iter-start", err)
				}
				if st := w.Status(); st.TokensTrained != 0 {
					t.Fatalf("worker trained %d tokens", st.TokensTrained)
				}
				wc.Close()
				if m, err := co.Recv(); err == nil {
					t.Fatalf("worker sent %v after a malformed iter-start", m.Kind)
				}
			})
		})
	}
}

// TestWorkerIterStartAllocs: a worker on a train-comm-shaped replica
// (NewMLP(·,1024,1024,16), 4.26 MB of parameters) receives each
// iter-start, over Pair's pipe and over loopback TCP, into its own
// tensors, so once the pools are emptied twenty iter-starts, each
// answered with a request, allocate less than 64 KiB in all, where a
// frame buffer would be 4.8 MB. (The race detector drops pooled
// buffers at random, so under it the bound is not checked.)
func TestWorkerIterStartAllocs(t *testing.T) {
	model := func() *minidnn.Network { return minidnn.NewMLP(3, 1024, 1024, 16) }
	transports(t, func(t *testing.T, pair pairFunc) {
		co, wc := pair(t)
		w := NewWorker(0, minidnn.NewMLP(5, 1024, 1024, 16), minidnn.SyntheticBlobs(7, 8, 1024, 16), baseCfg())
		done := make(chan error, 1)
		go func() { done <- w.Run(wc) }()
		if m, err := co.Recv(); err != nil || m.Kind != transport.KindRegister {
			t.Fatalf("first message %v (%v), want a register", m, err)
		}
		var ps [][]float32
		for _, p := range model().Params() {
			ps = append(ps, p.Data)
		}
		var before, after runtime.MemStats
		for i := 0; i < 25; i++ {
			if i == 5 {
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
			}
			if err := co.Send(&transport.Message{Kind: transport.KindIterStart, Iter: i, Params: ps}); err != nil {
				t.Fatal(err)
			}
			if m, err := co.Recv(); err != nil || m.Kind != transport.KindRequest {
				t.Fatalf("iter-start %d answered with %v (%v), want a request", i, m, err)
			}
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc >= 64<<10 {
			t.Fatalf("20 iter-starts allocated %d bytes, want under %d", alloc, 64<<10)
		}
		for i, p := range w.net.Params() {
			if !slices.Equal(p.Data, ps[i]) {
				t.Fatalf("parameter tensor %d differs from the last iter-start's", i)
			}
		}
		co.Close()
		if err := <-done; transport.Classify(err) != transport.ClassPeerGone {
			t.Fatalf("worker returned %v after the coordinator closed, want peer-gone", err)
		}
	})
}

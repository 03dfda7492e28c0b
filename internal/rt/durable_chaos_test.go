package rt

// Coordinator-kill chaos: the durability counterpart of the worker
// chaos suite. Phase 1 runs a session whose coordinator checkpoints
// into a durable.Plane and "crashes" — every connection severed at a
// scripted protocol state, Run aborting like a killed process. Phase 2
// opens the same durable directory, loads the latest checkpoint, and
// resumes with fresh workers. Whatever the kill point, the resumed run
// must end bit-identical to an uninterrupted Sequential reference —
// the canonical-order aggregation recomputes the uncheckpointed tail
// exactly.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fela/internal/durable"
	"fela/internal/minidnn"
	"fela/internal/transport"
)

// errCoordinatorKilled marks every conn operation after the scripted
// kill fires.
var errCoordinatorKilled = errors.New("coordinator killed")

// killPoint scripts where phase 1 dies.
type killPoint struct {
	name string
	// sendNth > 0 trips the kill on the sendNth-th coordinator-side
	// send of onSendKind (1-based, across all conns); recvNth likewise
	// for receives of onRecvKind. KindRegister is 0, so the kind fields
	// only count when their nth guard is set.
	onSendKind, onRecvKind transport.Kind
	sendNth, recvNth       int
	// preCkpt/postCkpt trip the kill inside the checkpoint hook at
	// iteration ckptIter: before anything is written, between the
	// checkpoint commit and the ledger barrier entry, or after both.
	preCkpt, midCkpt, postCkpt bool
	ckptIter                   int
}

// killCtl is the shared crash switch: tripping it severs every
// coordinator-side connection at once, so phase 1 dies the way a
// killed process does — everywhere, mid-protocol.
type killCtl struct {
	killed atomic.Bool
	mu     sync.Mutex
	conns  []transport.Conn
	sends  map[transport.Kind]*atomic.Int64
	recvs  map[transport.Kind]*atomic.Int64
	point  killPoint
}

func newKillCtl(point killPoint) *killCtl {
	ctl := &killCtl{point: point,
		sends: map[transport.Kind]*atomic.Int64{},
		recvs: map[transport.Kind]*atomic.Int64{}}
	for _, k := range transport.Kinds() {
		ctl.sends[k] = &atomic.Int64{}
		ctl.recvs[k] = &atomic.Int64{}
	}
	return ctl
}

func (ctl *killCtl) trip() {
	if ctl.killed.Swap(true) {
		return
	}
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	for _, c := range ctl.conns {
		c.Close()
	}
}

// killConn wraps one coordinator-side connection with the shared
// crash switch.
type killConn struct {
	inner transport.Conn
	ctl   *killCtl
}

func (kc *killConn) Send(m *transport.Message) error {
	ctl := kc.ctl
	if ctl.killed.Load() {
		return errCoordinatorKilled
	}
	if ctl.point.sendNth > 0 && m.Kind == ctl.point.onSendKind &&
		ctl.sends[m.Kind].Add(1) == int64(ctl.point.sendNth) {
		ctl.trip()
		return errCoordinatorKilled
	}
	return kc.inner.Send(m)
}

func (kc *killConn) Recv() (*transport.Message, error) {
	ctl := kc.ctl
	m, err := kc.inner.Recv()
	if ctl.killed.Load() {
		return nil, errCoordinatorKilled
	}
	if err != nil {
		return nil, err
	}
	if ctl.point.recvNth > 0 && m.Kind == ctl.point.onRecvKind &&
		ctl.recvs[m.Kind].Add(1) == int64(ctl.point.recvNth) {
		ctl.trip()
		return nil, errCoordinatorKilled
	}
	return m, nil
}

func (kc *killConn) Close() error { return kc.inner.Close() }

// durableCfg is the session the suite replays: momentum so the
// velocity state matters to the resume, CheckpointEvery 2 so kills
// land both before and after commits.
func durableCfg() Config {
	cfg := baseCfg()
	cfg.Momentum = 0.9
	cfg.CheckpointEvery = 2
	return cfg
}

// ckptHook wires Config.Checkpoint to a durable plane (store commit,
// then the ledger's barrier entry — the DESIGN.md §14 ordering) with
// scripted kills inside the commit window.
func ckptHook(plane *durable.Plane, ctl *killCtl) func(int, [][]float32, [][]float32, []float64) error {
	return func(iter int, params, vel [][]float32, losses []float64) error {
		if ctl != nil && ctl.point.preCkpt && iter == ctl.point.ckptIter {
			ctl.trip()
			return errCoordinatorKilled
		}
		if err := plane.Store.Save(&durable.Checkpoint{
			JobID: 0, Iter: iter, Params: params, Vel: vel, Losses: losses,
		}); err != nil {
			return err
		}
		if ctl != nil && ctl.point.midCkpt && iter == ctl.point.ckptIter {
			ctl.trip()
			return errCoordinatorKilled
		}
		if _, err := plane.Ledger.Append(durable.Entry{Op: durable.OpBarrier, WID: -1, Iter: iter}); err != nil {
			return err
		}
		if ctl != nil && ctl.point.postCkpt && iter == ctl.point.ckptIter {
			ctl.trip()
			return errCoordinatorKilled
		}
		return nil
	}
}

// runPhase runs one coordinator over fresh in-process workers. ctl
// non-nil scripts the phase-1 kill; resume non-nil restores phase 2.
func runPhase(t *testing.T, cfg Config, plane *durable.Plane, ctl *killCtl, resume *Resume) (*Result, error) {
	t.Helper()
	cfg.Checkpoint = ckptHook(plane, ctl)
	cfg.Resume = resume
	serverConns := make([]transport.Conn, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		if ctl != nil {
			ctl.mu.Lock()
			ctl.conns = append(ctl.conns, server)
			ctl.mu.Unlock()
			serverConns[wid] = &killConn{inner: server, ctl: ctl}
		} else {
			serverConns[wid] = server
		}
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { _ = w.Run(client) }()
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := co.Run(serverConns)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		return out.res, out.err
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung")
		return nil, nil
	}
}

// resumeFrom builds the phase-2 Resume from the durable directory, nil
// when the kill predated the first checkpoint commit.
func resumeFrom(t *testing.T, plane *durable.Plane) *Resume {
	t.Helper()
	ck, err := plane.Store.Load(0)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if ck == nil {
		return nil
	}
	return &Resume{Iter: ck.Iter, Params: ck.Params, Vel: ck.Vel, Losses: ck.Losses}
}

// TestChaosCoordinatorKillEveryProtocolState kills the coordinator at
// every protocol state — registration, iter-start broadcast, token
// assignment, report receipt, inside the checkpoint commit window, and
// during shutdown — and asserts the restarted coordinator resumes
// bit-identical to an uninterrupted run.
func TestChaosCoordinatorKillEveryProtocolState(t *testing.T) {
	// With 4 workers, 8 tokens and CheckpointEvery 2, iteration i sends
	// its iter-starts at nth 4i+1..4i+4; checkpoints commit at
	// iterations 1, 3, 5.
	points := []killPoint{
		{name: "post-register", onSendKind: transport.KindIterStart, sendNth: 1},
		{name: "mid-iter-start-broadcast", onSendKind: transport.KindIterStart, sendNth: 2},
		{name: "mid-broadcast-after-checkpoint", onSendKind: transport.KindIterStart, sendNth: 10},
		{name: "post-assign", onSendKind: transport.KindAssign, sendNth: 11},
		{name: "mid-report", onRecvKind: transport.KindReport, recvNth: 13},
		{name: "pre-checkpoint", preCkpt: true, ckptIter: 3},
		{name: "between-checkpoint-and-ledger", midCkpt: true, ckptIter: 3},
		{name: "post-checkpoint", postCkpt: true, ckptIter: 3},
		{name: "post-final-checkpoint", postCkpt: true, ckptIter: 5},
		{name: "mid-shutdown-broadcast", onSendKind: transport.KindShutdown, sendNth: 2},
	}
	cfg := durableCfg()
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range points {
		t.Run(point.name, func(t *testing.T) {
			t.Parallel()
			dumpFlightOnFailure(t)
			dir := t.TempDir()

			plane, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctl := newKillCtl(point)
			res, runErr := runPhase(t, cfg, plane, ctl, nil)
			killed := ctl.killed.Load()
			if !killed {
				t.Fatalf("kill point %q never fired (err %v)", point.name, runErr)
			}
			if runErr == nil && point.name != "mid-shutdown-broadcast" {
				t.Fatalf("killed coordinator reported success: %+v", res)
			}
			plane.Close() // the dying process releases its lock

			// Restart: replay the ledger, load the latest checkpoint,
			// resume with a fresh worker fleet.
			plane2, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer plane2.Close()
			resume := resumeFrom(t, plane2)
			if resume != nil {
				// The ledger's barrier history must never be ahead of the
				// checkpoint store (commit ordering: store first).
				for _, e := range plane2.Entries {
					if e.Op == durable.OpBarrier && e.Iter > resume.Iter {
						t.Fatalf("ledger barrier at iter %d ahead of checkpoint iter %d", e.Iter, resume.Iter)
					}
				}
			}
			res2, err := runPhase(t, cfg, plane2, nil, resume)
			requireClean(t, res2, err)
			if !minidnn.ParamsEqual(seq.Params, res2.Params) {
				t.Fatal("resumed run diverged from uninterrupted sequential reference")
			}
			if len(res2.Losses) != cfg.Iterations {
				t.Fatalf("resumed run reports %d losses, want %d", len(res2.Losses), cfg.Iterations)
			}
			for i, l := range res2.Losses {
				if l != seq.Losses[i] {
					t.Fatalf("loss history diverged at iteration %d: %v vs %v", i, l, seq.Losses[i])
				}
			}
		})
	}
}

// TestChaosKillAtEveryIteration sweeps the kill across every iteration
// boundary region (first assign of each iteration) — a denser sweep of
// the same invariant, so no interval between checkpoints escapes.
func TestChaosKillAtEveryIteration(t *testing.T) {
	cfg := durableCfg()
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nTok := cfg.TotalBatch / cfg.TokenBatch
	for it := 0; it < cfg.Iterations; it++ {
		t.Run(fmt.Sprintf("kill-during-iter-%d", it), func(t *testing.T) {
			t.Parallel()
			dumpFlightOnFailure(t)
			dir := t.TempDir()
			plane, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctl := newKillCtl(killPoint{onSendKind: transport.KindAssign, sendNth: it*nTok + 2})
			if _, runErr := runPhase(t, cfg, plane, ctl, nil); runErr == nil {
				t.Fatal("killed coordinator reported success")
			}
			plane.Close()

			plane2, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer plane2.Close()
			res2, err := runPhase(t, cfg, plane2, nil, resumeFrom(t, plane2))
			requireClean(t, res2, err)
			if !minidnn.ParamsEqual(seq.Params, res2.Params) {
				t.Fatal("resumed run diverged from uninterrupted sequential reference")
			}
		})
	}
}

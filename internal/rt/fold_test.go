package rt

// Fold-order chaos: the coordinator folds each report into the
// iteration's gradient sum the moment every lower seq is in, and parks a
// report that arrives ahead of a gap — its pooled payload included —
// until the gap closes. These sessions force reports out of order (a
// slow worker 0), kill the worker holding the lowest unfolded seq, drain
// and resume mid-session, and repeat a lossy session; each must end
// exactly where the undisturbed computation does, with nothing still
// parked at any barrier.

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/transport"
)

// arrival is one report as the coordinator's side of the wire saw it.
type arrival struct {
	seq int
	// arena is the report's first gradient element, or the first float
	// of its first section's factors, which identifies the buffer the
	// transport decoded it into.
	arena *float32
	// viewed is set when the first two gradient sections are not
	// back to back, as sections carved one after another from one arena
	// are: the first is then a view of the received frame.
	viewed bool
}

// arrivalLog records every report a session's coordinator receives, per
// iteration, in arrival order.
type arrivalLog struct {
	nTok  int
	mu    sync.Mutex
	iters map[int][]arrival
}

func (l *arrivalLog) add(m *transport.Message) {
	a := arrival{seq: m.Token.Seq}
	if len(m.Grads) > 0 && len(m.Grads[0]) > 0 {
		a.arena = &m.Grads[0][0]
	} else if r1 := m.Rank1(); r1 != nil && len(r1[0].X) > 0 {
		a.arena = &r1[0].X[0] // a one-row token's first weight gradient, as factors
	}
	if len(m.Grads) > 1 && len(m.Grads[1]) > 0 {
		a.viewed = unsafe.Pointer(&m.Grads[1][0]) != unsafe.Add(unsafe.Pointer(a.arena), 4*len(m.Grads[0]))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.iters == nil {
		l.iters = map[int][]arrival{}
	}
	it := m.Token.ID / l.nTok
	l.iters[it] = append(l.iters[it], a)
}

// gapClosed reports whether every seq below seq has been seen.
func gapClosed(seen map[int]bool, seq int) bool {
	for s := 0; s < seq; s++ {
		if !seen[s] {
			return false
		}
	}
	return true
}

// parked counts the reports that arrived while a lower seq of their
// iteration was still missing: the ones the coordinator had to park.
func (l *arrivalLog) parked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, as := range l.iters {
		seen := map[int]bool{}
		for _, a := range as {
			if !gapClosed(seen, a.seq) {
				n++
			}
			seen[a.seq] = true
		}
	}
	return n
}

// viewed counts the reports whose first gradient section was a view of
// the received frame.
func (l *arrivalLog) viewed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, as := range l.iters {
		for _, a := range as {
			if a.viewed {
				n++
			}
		}
	}
	return n
}

// checkArenas asserts that no report arriving while an earlier one was
// parked was decoded into the parked one's buffer: a parked report keeps
// its pooled arena, or the frame its sections are views of, until it is
// folded.
func (l *arrivalLog) checkArenas(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for it, as := range l.iters {
		for i, a := range as {
			seen := map[int]bool{}
			for _, b := range as[:i+1] {
				seen[b.seq] = true
			}
			for _, b := range as[i+1:] {
				if gapClosed(seen, a.seq) {
					break
				}
				if a.arena != nil && b.arena == a.arena {
					t.Errorf("iteration %d: report for seq %d decoded into the arena of parked seq %d", it, b.seq, a.seq)
				}
				seen[b.seq] = true
			}
		}
	}
}

// logConn logs the reports received over a coordinator-side conn.
type logConn struct {
	transport.Conn
	log *arrivalLog
}

func (c logConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == transport.KindReport {
		c.log.add(m)
	}
	return m, err
}

// runFoldSession runs cfg over conns made by pair, logging report
// arrivals and checking at every barrier (through the checkpoint hook,
// on the coordinator's goroutine) that every report of the iteration
// was folded and released. wrap, when set, sits between a worker and
// its conn. The coordinator's error is returned, not asserted.
func runFoldSession(t *testing.T, cfg Config, pair pairFunc, wrap func(wid int, c transport.Conn) transport.Conn) (*Result, *arrivalLog, error) {
	t.Helper()
	return runFoldSessionOn(t, mlp, cfg, pair, wrap)
}

// runFoldSessionOn is runFoldSession on replicas built by model.
func runFoldSessionOn(t *testing.T, model func() *minidnn.Network, cfg Config, pair pairFunc, wrap func(wid int, c transport.Conn) transport.Conn) (*Result, *arrivalLog, error) {
	t.Helper()
	dumpFlightOnFailure(t)
	log := &arrivalLog{nTok: cfg.tokensPerIter()}
	var co *Coordinator
	inner := cfg.Checkpoint
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
		if co.folded != len(co.tokens) {
			t.Errorf("iteration %d barrier: %d of %d tokens folded", iter, co.folded, len(co.tokens))
		}
		for seq, tok := range co.tokens {
			if tok.report != nil {
				t.Errorf("iteration %d barrier: report for seq %d still parked", iter, seq)
			}
		}
		for i, a := range co.acc {
			if k := len(co.runs[i].xs); k > 0 {
				t.Errorf("iteration %d barrier: %d rank-1 terms of section %d still pending", iter, k, i)
			}
			if a == nil {
				continue // no dense sum: the section was folded on the barrier's tiles
			}
			if j := slices.IndexFunc(a.Data, func(v float32) bool { return math.Float32bits(v) != 0 }); j >= 0 {
				t.Errorf("iteration %d barrier: sum %d not cleared to +0 at %d (%v)", iter, i, j, a.Data[j])
			}
		}
		if inner != nil {
			return inner(iter, params, vel, losses)
		}
		return nil
	}

	serverConns := make([]transport.Conn, cfg.Workers)
	workerErrs := make(chan error, cfg.Workers)
	for wid := range serverConns {
		var c transport.Conn
		serverConns[wid], c = pair(t)
		go func() {
			defer c.Close()
			if wrap != nil {
				c = wrap(wid, c)
			}
			workerErrs <- NewWorker(wid, model(), blobs(), cfg).Run(c)
		}()
	}
	conns := make([]transport.Conn, len(serverConns))
	for i, c := range serverConns {
		conns[i] = logConn{c, log}
	}

	var err error
	if co, err = NewCoordinator(model(), cfg); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := co.Run(conns)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung")
	}
	// Whatever the outcome, the session is over: free every worker.
	for _, c := range serverConns {
		c.Close()
	}
	for range serverConns {
		select {
		case <-workerErrs:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after the session")
		}
	}
	return out.res, log, out.err
}

// slowWorker0 makes worker 0 take every token slowly while the others
// wait out the first moments of each iteration, so worker 0 always holds
// seq 0 while the rest of the iteration is reported around it.
func slowWorker0(cfg *Config) {
	throttleHealthy(cfg, 0)
	cfg.TokenDelay = func(iter, wid int) time.Duration {
		if wid == 0 {
			return 40 * time.Millisecond
		}
		return 0
	}
}

// assertMatchesSequential holds a session to Sequential: the same
// parameters and the same loss history, bit for bit.
func assertMatchesSequential(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	assertMatchesSequentialOn(t, mlp, cfg, res)
}

// assertMatchesSequentialOn is assertMatchesSequential for a session
// on replicas built by model.
func assertMatchesSequentialOn(t *testing.T, model func() *minidnn.Network, cfg Config, res *Result) {
	t.Helper()
	seq, err := Sequential(model(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		t.Fatal("parameters differ from Sequential")
	}
	if !slices.Equal(seq.Losses, res.Losses) {
		t.Fatalf("loss history differs from Sequential:\n got %v\nwant %v", res.Losses, seq.Losses)
	}
}

// TestChaosFoldOutOfOrder: reports arrive out of seq order — worker 0 is
// slow — and are parked until the gap closes; the result is Sequential's.
func TestChaosFoldOutOfOrder(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 4
	slowWorker0(&cfg)
	res, log, err := runFoldSession(t, cfg, pipePair, nil)
	requireClean(t, res, err)
	assertMatchesSequential(t, cfg, res)
	if log.parked() == 0 {
		t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
	}
}

// TestChaosFoldWorkerDiesHoldingLowestSeq: worker 0 dies on the report
// of seq 0 — the lowest unfolded seq — with every higher seq of the
// iteration parked behind it. Seq 0 is reassigned, its report closes the
// gap, and the parked reports fold in order.
func TestChaosFoldWorkerDiesHoldingLowestSeq(t *testing.T) {
	cfg := chaosCfg()
	slowWorker0(&cfg)
	// Worker 0's sends: register, request, then the report of seq 0.
	res, log, err := runFoldSession(t, cfg, pipePair, func(wid int, c transport.Conn) transport.Conn {
		if wid == 0 {
			return transport.NewFaultConn(c, 1).CloseAfterSends(2)
		}
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSequential(t, cfg, res)
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != 0 {
		t.Fatalf("DeadWorkers = %v, want [0]", res.DeadWorkers)
	}
	if res.Reassigned == 0 {
		t.Fatal("the dead worker held seq 0 but nothing was reassigned")
	}
	first := log.iters[0]
	if len(first) != cfg.tokensPerIter() || first[len(first)-1].seq != 0 {
		t.Fatalf("iteration 0 reports arrived as %v, want seq 0 last, after the rest were parked", first)
	}
}

// TestChaosFoldDrainAndResume: a worker drains mid-session while reports
// arrive out of order, the coordinator dies after the iteration-3
// checkpoint, and a fresh coordinator resumes from it: the stitched
// session ends where Sequential does.
func TestChaosFoldDrainAndResume(t *testing.T) {
	cfg := elasticCfg(&scriptedPolicy{inner: admitAllPolicy{}}, 6)
	cfg.Workers = 3
	cfg.Momentum = 0.9
	cfg.Drain = func(iter, wid int) bool { return wid == 1 && iter >= 2 }
	slowWorker0(&cfg)

	const dieAfter = 3
	var saved *Resume
	crashed := errors.New("coordinator killed")
	phase1 := cfg
	phase1.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
		saved = &Resume{Iter: iter, Params: params, Vel: vel, Losses: losses}
		if iter == dieAfter {
			return crashed
		}
		return nil
	}
	_, log1, err := runFoldSession(t, phase1, pipePair, nil)
	if !errors.Is(err, crashed) {
		t.Fatalf("phase 1 ended with %v, want the scripted crash", err)
	}
	if saved == nil || saved.Iter != dieAfter {
		t.Fatalf("phase 1 left checkpoint %+v, want iteration %d", saved, dieAfter)
	}
	phase2 := cfg
	phase2.Resume = saved
	res, log2, err := runFoldSession(t, phase2, pipePair, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSequential(t, cfg, res)
	if got := metrics.ScaleSequence(res.Scales); !slices.Equal(got, []string{"leave:1"}) {
		t.Fatalf("resumed session scales %v, want worker 1's drain", got)
	}
	if log1.parked()+log2.parked() == 0 {
		t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
	}
}

// TestChaosFoldTopKRepeats: a top-k session whose reports are folded out
// of arrival order repeats the undisturbed top-k session bit for bit —
// the order of the fold is seq order, not arrival order, for lossy
// gradients too.
func TestChaosFoldTopKRepeats(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 4
	cfg.Compress = transport.CompressTopK
	want, _, err := runFoldSession(t, cfg, tcpPair, nil)
	requireClean(t, want, err)
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if minidnn.ParamsEqual(seq.Params, want.Params) {
		t.Fatal("top-k session is bit-identical to Sequential: nothing was dropped, the repeat proves nothing")
	}
	slowWorker0(&cfg)
	got, log, err := runFoldSession(t, cfg, tcpPair, nil)
	requireClean(t, got, err)
	assertSameSession(t, got, want)
	if log.parked() == 0 {
		t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
	}
}

// TestChaosFoldTCPParkedArena: over TCP a report is decoded into a
// pooled arena, and a parked report keeps its arena until it is folded —
// no report decoded while it waits lands in the same buffer, and the
// result is Sequential's.
func TestChaosFoldTCPParkedArena(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 4
	slowWorker0(&cfg)
	res, log, err := runFoldSession(t, cfg, tcpPair, nil)
	requireClean(t, res, err)
	assertMatchesSequential(t, cfg, res)
	if log.parked() == 0 {
		t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
	}
	log.checkArenas(t)
}

// wideMLP has a first layer of 32 Ki weights, past the transport's
// 16 Ki-float threshold: over TCP that gradient section arrives as a
// view of the received frame instead of a copy.
func wideMLP() *minidnn.Network { return minidnn.NewMLP(42, 8, 4096, 4) }

// TestChaosFoldTCPParkedView is TestChaosFoldTCPParkedArena with reports
// whose first section is a view of the frame it arrived in: a parked
// report keeps that frame until it is folded, so no report received
// while it waits is read into the same buffer, and the result is
// Sequential's. Were the frame recycled at arrival, the next report
// would overwrite the parked one's gradients.
func TestChaosFoldTCPParkedView(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 4
	slowWorker0(&cfg)
	res, log, err := runFoldSessionOn(t, wideMLP, cfg, tcpPair, nil)
	requireClean(t, res, err)
	assertMatchesSequentialOn(t, wideMLP, cfg, res)
	if log.parked() == 0 {
		t.Fatal("every report arrived in seq order: nothing was parked, the test proves nothing")
	}
	if n := log.viewed(); n != cfg.Iterations*cfg.tokensPerIter() {
		t.Fatalf("%d of %d reports arrived as frame views", n, cfg.Iterations*cfg.tokensPerIter())
	}
	log.checkArenas(t)
}

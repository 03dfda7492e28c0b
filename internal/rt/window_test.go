package rt

// Own tokens by the window: a worker may hold queueBudget's worth of its
// own shard at its measured token rate, and at least two. These tests pin
// the selection rule against the one-ahead rule it generalises, show the
// two regimes — tokens of a millisecond or more keep the one-ahead
// window, tiny tokens queue deeper — and kill, drain and fail sends while
// a worker holds a deep window.

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fela/internal/transport"
)

// pairServe is the one-ahead rule the window generalises: a worker
// holding nothing gets pick's token — its own shard's lowest unassigned
// seq, else the lowest of the largest backlog, ties to the lower wid —
// and then, holding one, the lowest unassigned token of its own shard if
// the shard has two or more.
func pairServe(tokens []*tokenState, wid, held int) []*tokenState {
	var out []*tokenState
	free := func(t *tokenState) bool { return !t.assigned && !t.done && !slices.Contains(out, t) }
	if held == 0 {
		count, first := map[int]int{}, map[int]*tokenState{}
		for _, t := range tokens {
			if free(t) {
				if count[t.info.Owner]++; first[t.info.Owner] == nil {
					first[t.info.Owner] = t
				}
			}
		}
		best := wid
		if count[wid] == 0 {
			best = -1
			for o, n := range count {
				if best == -1 || n > count[best] || (n == count[best] && o < best) {
					best = o
				}
			}
		}
		if best == -1 {
			return nil
		}
		out = append(out, first[best])
	}
	var own []*tokenState
	for _, t := range tokens {
		if t.info.Owner == wid && free(t) {
			own = append(own, t)
		}
	}
	if len(own) >= 2 {
		out = append(out, own[0])
	}
	return out
}

// randomTokens is one iteration's tokens in a random state: owners drawn
// from workers, each token unassigned, assigned or done.
func randomTokens(rng *rand.Rand, n, workers int) []*tokenState {
	tokens := make([]*tokenState, n)
	for seq := range tokens {
		tokens[seq] = &tokenState{info: transport.TokenInfo{Seq: seq, Owner: rng.Intn(workers)}}
		switch rng.Intn(3) {
		case 1:
			tokens[seq].assigned = true
		case 2:
			tokens[seq].done = true
		}
	}
	return tokens
}

// TestSelectBatchDepthTwoIsOneAhead: at depth 2 — any worker before it
// has a rate, and any worker whose tokens take queueBudget or longer —
// the batch is exactly what the one-ahead rule assigns, in every state.
func TestSelectBatchDepthTwoIsOneAhead(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const workers = 4
	backlog := make([]int, workers)
	var batch []*tokenState
	for trial := 0; trial < 2000; trial++ {
		tokens := randomTokens(rng, 1+rng.Intn(24), workers)
		wid, held := rng.Intn(workers), rng.Intn(2)
		batch = selectBatch(tokens, wid, held, 2, backlog, batch)
		if want := pairServe(tokens, wid, held); !slices.Equal(batch, want) {
			t.Fatalf("trial %d, worker %d holding %d: batch %v, one-ahead assigns %v", trial, wid, held, seqs(batch), seqs(want))
		}
	}
}

func seqs(ts []*tokenState) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.info.Seq
	}
	return out
}

// TestSelectBatchWindow: a deeper window tops up with the lowest own
// seqs, never queues the shard's last unassigned token, and never steals
// while the worker holds a token.
func TestSelectBatchWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const workers = 3
	backlog := make([]int, workers)
	var batch []*tokenState
	for trial := 0; trial < 2000; trial++ {
		tokens := randomTokens(rng, 1+rng.Intn(40), workers)
		wid, depth := rng.Intn(workers), 2+rng.Intn(12)
		held := rng.Intn(depth/2 + 1)
		batch = selectBatch(tokens, wid, held, depth, backlog, batch)
		var own []*tokenState
		for _, t := range tokens {
			if t.info.Owner == wid && !t.assigned && !t.done {
				own = append(own, t)
			}
		}
		want := own[:min(depth-held, max(len(own)-1, 0))]
		if held == 0 && len(own) > 0 {
			want = own[:max(len(want), 1)]
		}
		if held == 0 && len(own) == 0 {
			// A steal, one token: checked against the one-ahead rule.
			want = pairServe(tokens, wid, 0)
		}
		if !slices.Equal(batch, want) {
			t.Fatalf("trial %d, worker %d holding %d of %d: batch %v, want %v", trial, wid, held, depth, seqs(batch), seqs(want))
		}
		if len(own) > 1 && slices.Contains(batch, own[len(own)-1]) {
			t.Fatalf("trial %d: the shard's last unassigned token was queued", trial)
		}
	}
}

// TestSelectBatchAllocs: choosing a batch allocates nothing, on a full
// window, a top-up and a steal.
func TestSelectBatchAllocs(t *testing.T) {
	tokens := make([]*tokenState, 32)
	for seq := range tokens {
		tokens[seq] = &tokenState{info: transport.TokenInfo{Seq: seq, Owner: seq % 2}}
	}
	backlog := make([]int, 2)
	batch := make([]*tokenState, 0, 32)
	for _, tc := range []struct {
		name         string
		held, depth  int
		wid, ownDone int
	}{
		{"window", 0, 32, 0, 0},
		{"top-up", 3, 8, 0, 0},
		{"steal", 0, 8, 1, 16},
	} {
		for seq := 0; seq < tc.ownDone; seq++ {
			tokens[2*seq+tc.wid].done = true
		}
		allocs := testing.AllocsPerRun(100, func() {
			batch = selectBatch(tokens, tc.wid, tc.held, tc.depth, backlog, batch)
		})
		if allocs != 0 || len(batch) == 0 {
			t.Fatalf("%s: %v allocations for a batch of %d", tc.name, allocs, len(batch))
		}
	}
}

// fastRate is a token rate that makes every shard fit in one window.
const fastRate = 1e9

// windowOpts shapes runWindowSession.
type windowOpts struct {
	pair pairFunc
	// fast gives every worker fastRate before the first iteration, so
	// windows are deep from the start instead of from iteration 1.
	fast bool
	// coord wraps the coordinator's end of worker wid's conn.
	coord func(wid int, c transport.Conn) transport.Conn
	// worker runs worker wid over c in place of NewWorker(...).Run.
	worker func(wid int, c transport.Conn)
}

// runWindowSession runs cfg over conns made by o.pair. Conns are paired
// with worker ids in order, so coord sees each worker's own conn.
func runWindowSession(t *testing.T, cfg Config, o windowOpts) sessionOutcome {
	t.Helper()
	dumpFlightOnFailure(t)
	conns := make([]transport.Conn, cfg.Workers)
	var wg sync.WaitGroup
	for wid := range conns {
		var client transport.Conn
		conns[wid], client = o.pair(t)
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			defer client.Close()
			if o.worker != nil {
				o.worker(wid, client)
				return
			}
			_ = NewWorker(wid, mlp(), blobs(), cfg).Run(client)
		}(wid)
		if o.coord != nil {
			conns[wid] = o.coord(wid, conns[wid])
		}
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.fast {
		for wid := range conns {
			co.rates[wid] = fastRate
		}
	}
	out := runCoordinator(t, co, conns)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a worker did not exit after the session")
	}
	return out
}

// windowCfg is two workers sharing 32 two-sample tokens, 16 a shard.
func windowCfg() Config {
	cfg := baseCfg()
	cfg.Workers = 2
	cfg.TokenBatch = 2
	cfg.Iterations = 3
	return cfg
}

// pairFunc makes one conn pair: the coordinator's end and the worker's.
// The test closes both when it ends.
type pairFunc func(t *testing.T) (co, w transport.Conn)

// pipePair is a pair of in-process conns (transport.Pair).
func pipePair(t *testing.T) (co, w transport.Conn) {
	checkGoroutines(t)
	co, w = transport.Pair()
	t.Cleanup(func() { co.Close(); w.Close() })
	return co, w
}

// tcpPair is a pair of conns over loopback TCP.
func tcpPair(t *testing.T) (co, w transport.Conn) {
	t.Helper()
	checkGoroutines(t)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if w, err = transport.Dial(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if co, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close(); w.Close() })
	return co, w
}

// checked holds the tests checkGoroutines already watches.
var checked sync.Map

// checkGoroutines fails t unless, once its cleanups have closed every
// conn it made, each goroutine started since its first conn exits
// within a second; the failure lists their stacks. The kernel pool's
// helpers (tensor.parallelBands) live for the process and are not
// counted. The check is registered before the first pair's own
// cleanup, so it runs after every pair is closed.
func checkGoroutines(t *testing.T) {
	if _, seen := checked.LoadOrStore(t, true); seen {
		return
	}
	start := runtime.NumGoroutine()
	before := goroutines()
	t.Cleanup(func() {
		checked.Delete(t)
		var extra []string
		for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
			if runtime.NumGoroutine() <= start {
				return
			}
			extra = extra[:0]
			for id, stack := range goroutines() {
				if _, ok := before[id]; !ok && !strings.Contains(stack, "tensor.poolHelper") {
					extra = append(extra, stack)
				}
			}
			if len(extra) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(extra) > 0 {
			t.Errorf("%d goroutines outlived the test's conns:\n\n%s", len(extra), strings.Join(extra, "\n\n"))
		}
	})
}

// goroutines maps the id of every live goroutine to its stack.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
}

// transports runs a case on in-process pairs and on loopback TCP: the
// same frames through a pipe and through a socket.
func transports(t *testing.T, run func(t *testing.T, pair pairFunc)) {
	t.Run("mem", func(t *testing.T) { run(t, pipePair) })
	t.Run("tcp", func(t *testing.T) { run(t, tcpPair) })
}

// TestWindowLongTokensRideOneAhead: with tokens of a millisecond, no
// worker ever holds more than the token it trains and the one riding
// ahead.
func TestWindowLongTokensRideOneAhead(t *testing.T) {
	cfg := windowCfg()
	cfg.TokenBatch = 4 // 16 tokens, 8 a shard
	cfg.Iterations = 4
	cfg.TokenDelay = func(iter, wid int) time.Duration { return time.Millisecond }
	res, watched := runAheadSession(t, cfg)
	assertMatchesSequential(t, cfg, res)
	for wid, c := range watched {
		if c.peak != 2 {
			t.Fatalf("worker %d held at most %d tokens, want 2", wid, c.peak)
		}
	}
}

// TestWindowShortTokensQueueDeeper: with tiny tokens, once the workers
// have a rate some worker holds more than two tokens, and no shard's last
// token is ever queued. In process the rate comes from the session
// itself, so a session slowed to under three tokens a millisecond is run
// again; over TCP, where a loaded machine under the race detector can
// take that long, the workers start with fastRate.
func TestWindowShortTokensQueueDeeper(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair pairFunc
		fast bool
	}{{"mem", pipePair, false}, {"tcp", tcpPair, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := windowCfg()
			cfg.TotalBatch = 128 // 64 tokens, 32 a shard
			cfg.Iterations = 8
			for attempt := 1; ; attempt++ {
				watched := make([]*aheadConn, cfg.Workers)
				out := runWindowSession(t, cfg, windowOpts{pair: tc.pair, fast: tc.fast, coord: func(wid int, c transport.Conn) transport.Conn {
					watched[wid] = &aheadConn{Conn: c}
					return watched[wid]
				}})
				requireClean(t, out.res, out.err)
				assertMatchesSequential(t, cfg, out.res)
				peak := 0
				for wid, c := range watched {
					last := cfg.tokensPerIter() - cfg.Workers + wid
					if slices.Contains(c.queued, last) {
						t.Fatalf("worker %d's last token %d was queued: queued seqs %v", wid, last, c.queued)
					}
					peak = max(peak, c.peak)
				}
				if peak > 2 {
					return
				}
				if attempt == 3 {
					t.Fatalf("no worker held more than %d tokens in %d sessions", peak, attempt)
				}
			}
		})
	}
}

// killOnAssign closes a worker's conn when it receives assign number
// kill (1-based) of iteration iter, as if the process died there.
type killOnAssign struct {
	transport.Conn
	iter, kill, seen int
}

func (c *killOnAssign) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == transport.KindAssign && m.Iter == c.iter {
		if c.seen++; c.seen == c.kill {
			c.Conn.Close()
			return nil, transport.ErrClosed
		}
	}
	return m, err
}

// TestChaosWindowHolderDies: worker 1 dies holding a deep window, after
// reporting the first token of it. Every token it held returns to the
// pool and the survivor trains them.
func TestChaosWindowHolderDies(t *testing.T) { windowHolderDies(t, windowCfg().TokenBatch) }

// windowHolderDies is TestChaosWindowHolderDies on tokens of tokenBatch
// rows.
func windowHolderDies(t *testing.T, tokenBatch int) {
	transports(t, func(t *testing.T, pair pairFunc) {
		cfg := windowCfg()
		cfg.TokenBatch = tokenBatch
		cfg.WorkerTimeout = 400 * time.Millisecond
		throttleHealthy(&cfg, 1)
		out := runWindowSession(t, cfg, windowOpts{pair: pair, fast: true, worker: func(wid int, c transport.Conn) {
			if wid == 1 {
				c = &killOnAssign{Conn: c, iter: 1, kill: 2}
			}
			_ = NewWorker(wid, mlp(), blobs(), cfg).Run(c)
		}})
		if out.err != nil {
			t.Fatal(out.err)
		}
		assertMatchesSequential(t, cfg, out.res)
		if !slices.Equal(out.res.DeadWorkers, []int{1}) {
			t.Fatalf("DeadWorkers = %v, want [1]", out.res.DeadWorkers)
		}
		if out.res.Reassigned <= 2 {
			t.Fatalf("Reassigned = %d, want the rest of a window deeper than two", out.res.Reassigned)
		}
	})
}

// leaveMidWindow speaks the worker protocol honestly, except that in
// iteration 1 it reports the first token of its window, announces a
// leave while it holds the rest, and ignores everything but the end of
// the session from then on.
func leaveMidWindow(wid int, conn transport.Conn, cfg Config) {
	w := NewWorker(wid, mlp(), blobs(), cfg)
	if conn.Send(&transport.Message{Kind: transport.KindRegister, WID: wid}) != nil {
		return
	}
	left := false
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case transport.KindIterStart:
			w.setParams(m.Params)
			_ = conn.Send(&transport.Message{Kind: transport.KindRequest, WID: wid})
		case transport.KindAssign:
			if left {
				continue
			}
			report, err := w.train(m.Token)
			if err != nil || conn.Send(report) != nil {
				return
			}
			if m.Iter == 1 {
				left = true
				_ = conn.Send(&transport.Message{Kind: transport.KindLeave, WID: wid})
				continue
			}
			_ = conn.Send(&transport.Message{Kind: transport.KindRequest, WID: wid})
		case transport.KindDrainAck, transport.KindShutdown:
			return
		}
	}
}

// TestChaosWindowLeaveMidWindow: a leave arrives while the worker holds
// a deep window. The tokens it holds flow back through the reclaim path,
// the leave completes at the barrier, and nothing counts as a fault.
func TestChaosWindowLeaveMidWindow(t *testing.T) {
	transports(t, func(t *testing.T, pair pairFunc) {
		cfg := windowCfg()
		cfg.WorkerTimeout = 400 * time.Millisecond
		cfg.Elastic = admitAllPolicy{}
		delayWIDs(&cfg, 0)
		out := runWindowSession(t, cfg, windowOpts{pair: pair, fast: true, worker: func(wid int, c transport.Conn) {
			if wid == 1 {
				leaveMidWindow(wid, c, cfg)
				return
			}
			_ = NewWorker(wid, mlp(), blobs(), cfg).Run(c)
		}})
		if out.err != nil {
			t.Fatal(out.err)
		}
		assertElasticOutcome(t, cfg, out.res, []string{"leave:1"})
		if out.res.Scales[0].Iter != 2 {
			t.Errorf("leave effective at iteration %d, want 2", out.res.Scales[0].Iter)
		}
		if out.res.Reassigned <= 2 {
			t.Fatalf("Reassigned = %d, want the rest of a window deeper than two", out.res.Reassigned)
		}
		if len(out.res.Faults) != 0 || len(out.res.DeadWorkers) != 0 {
			t.Fatalf("planned departure recorded faults %v dead %v", out.res.Faults, out.res.DeadWorkers)
		}
	})
}

// countAssigns counts the assigns a worker's conn delivers.
type countAssigns struct {
	transport.Conn
	mu sync.Mutex
	n  int
}

func (c *countAssigns) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == transport.KindAssign {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	return m, err
}

// TestChaosWindowAssignFailsMidBatch: the second assign of worker 1's
// first window fails to send, which closes its conn. The first assign of
// the batch went down with it: it was held and never reached the wire. Without elasticity ("tolerant") the worker dies and both tokens
// return to the pool. Elastic, the first is reclaimed and the failed one
// reverted, as if never handed out, before the conn's close kills the
// worker.
func TestChaosWindowAssignFailsMidBatch(t *testing.T) {
	for _, mode := range []string{"tolerant", "elastic"} {
		t.Run(mode, func(t *testing.T) {
			transports(t, func(t *testing.T, pair pairFunc) {
				cfg := windowCfg()
				cfg.WorkerTimeout = 400 * time.Millisecond
				if mode == "elastic" {
					cfg.Elastic = admitAllPolicy{}
				}
				throttleHealthy(&cfg, 1)
				received := &countAssigns{}
				out := runWindowSession(t, cfg, windowOpts{pair: pair, fast: true,
					// Worker 1's sends: the iter-start, then its batch.
					coord: func(wid int, c transport.Conn) transport.Conn {
						if wid == 1 {
							return transport.NewFaultConn(c, 1).CloseAfterSends(2)
						}
						return c
					},
					worker: func(wid int, c transport.Conn) {
						if wid == 1 {
							received.Conn = c
							c = received
						}
						_ = NewWorker(wid, mlp(), blobs(), cfg).Run(c)
					},
				})
				if out.err != nil {
					t.Fatal(out.err)
				}
				assertMatchesSequential(t, cfg, out.res)
				if !slices.Equal(out.res.DeadWorkers, []int{1}) {
					t.Fatalf("DeadWorkers = %v, want [1]", out.res.DeadWorkers)
				}
				want := 2
				if mode == "elastic" {
					want = 1
				}
				if out.res.Reassigned != want {
					t.Fatalf("Reassigned = %d, want %d", out.res.Reassigned, want)
				}
				received.mu.Lock()
				defer received.mu.Unlock()
				if received.n != 0 {
					t.Fatalf("worker 1 received %d assigns; the held one must not leave", received.n)
				}
			})
		})
	}
}

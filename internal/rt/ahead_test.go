package rt

// One own token rides ahead: a worker may hold one token it has not
// started, always its own and never its shard's last unassigned one.
// These sessions kill a worker holding a queued token, time the queued
// token from when the worker starts it, and show the helper still steals
// a straggler's last token. The report-protocol tests below hold a
// report to the tokens its sender holds.

import (
	"slices"
	"sync"
	"testing"
	"time"

	"fela/internal/metrics"
	"fela/internal/transport"
)

// aheadConn watches a worker's conn from the coordinator's side: the
// tokens assigned and not yet reported, the most it ever held, the seqs
// assigned while it already held one (queued), and every seq assigned,
// by iteration.
type aheadConn struct {
	transport.Conn
	mu       sync.Mutex
	held     int
	peak     int
	queued   []int
	assigned map[int][]int
}

func (c *aheadConn) Send(m *transport.Message) error {
	if m.Kind == transport.KindAssign {
		c.mu.Lock()
		if c.held > 0 {
			c.queued = append(c.queued, m.Token.Seq)
		}
		c.held++
		c.peak = max(c.peak, c.held)
		if c.assigned == nil {
			c.assigned = map[int][]int{}
		}
		c.assigned[m.Iter] = append(c.assigned[m.Iter], m.Token.Seq)
		c.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func (c *aheadConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == transport.KindReport {
		c.mu.Lock()
		c.held--
		c.mu.Unlock()
	}
	return m, err
}

// runAheadSession runs cfg over in-process pairs with every
// coordinator-side conn wrapped in an aheadConn, indexed by worker id.
// The session must run clean (see requireClean).
func runAheadSession(t *testing.T, cfg Config) (*Result, []*aheadConn) {
	t.Helper()
	dumpFlightOnFailure(t)
	watched := make([]*aheadConn, cfg.Workers)
	conns := make([]transport.Conn, cfg.Workers)
	for wid := range conns {
		server, client := transport.Pair()
		watched[wid] = &aheadConn{Conn: server}
		conns[wid] = watched[wid]
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { _ = w.Run(client) }()
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runCoordinator(t, co, conns)
	requireClean(t, out.res, out.err)
	return out.res, watched
}

type sessionOutcome struct {
	res *Result
	err error
}

// runCoordinator runs co over conns, failing the test if it hangs, and
// closes every conn afterwards so no worker outlives the session.
func runCoordinator(t *testing.T, co *Coordinator, conns []transport.Conn) sessionOutcome {
	t.Helper()
	done := make(chan sessionOutcome, 1)
	go func() {
		res, err := co.Run(conns)
		done <- sessionOutcome{res, err}
	}()
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	select {
	case out := <-done:
		return out
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung")
		return sessionOutcome{}
	}
}

// TestChaosQueuedTokenHolderDies: worker 1 dies holding its first token
// and the own token queued behind it. Both return to the pool and the
// survivor trains them. The report is held for the request, whose send
// closes the conn and discards it.
func TestChaosQueuedTokenHolderDies(t *testing.T) {
	transports(t, func(t *testing.T, pair pairFunc) {
		cfg := chaosCfg()
		cfg.Workers = 2 // four tokens per shard: the first request queues one
		throttleHealthy(&cfg, 1)
		// Worker 1's sends: register, request, report, request.
		res, _, err := runFoldSession(t, cfg, pair, func(wid int, c transport.Conn) transport.Conn {
			if wid == 1 {
				return transport.NewFaultConn(c, 1).CloseAfterSends(3)
			}
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesSequential(t, cfg, res)
		if !slices.Equal(res.DeadWorkers, []int{1}) {
			t.Fatalf("DeadWorkers = %v, want [1]", res.DeadWorkers)
		}
		if res.Reassigned != 2 {
			t.Fatalf("Reassigned = %d, want 2: the token in hand and the queued one", res.Reassigned)
		}
	})
}

// TestChaosQueuedTokenClockStartsAtStart: with WorkerTimeout between one
// and two tokens' time, nobody dies (runAheadSession requires a clean
// session). A queued token's clock restarts when the token before it is
// reported; timed from its assignment it would pass the deadline while
// it waits.
func TestChaosQueuedTokenClockStartsAtStart(t *testing.T) {
	const token = 40 * time.Millisecond
	cfg := baseCfg()
	cfg.Workers = 2
	cfg.Iterations = 3
	cfg.TokenDelay = func(iter, wid int) time.Duration { return token }
	cfg.WorkerTimeout = token * 3 / 2
	res, watched := runAheadSession(t, cfg)
	assertMatchesSequential(t, cfg, res)
	for wid, c := range watched {
		if c.peak != 2 {
			t.Fatalf("worker %d held at most %d tokens, want 2: nothing was queued, the test proves nothing", wid, c.peak)
		}
	}
}

// TestChaosStragglerLastTokenStolen: the straggler (worker 1) gets its
// first own token with the next one queued, but its shard's last token
// is never queued: the helper, free once its own shard is done, steals
// it in every iteration.
func TestChaosStragglerLastTokenStolen(t *testing.T) {
	cfg := baseCfg()
	cfg.Workers = 2
	cfg.TotalBatch = 48 // six tokens: shards {0,2,4} and {1,3,5}
	cfg.Iterations = 3
	// Worker 1 reports its first token while worker 0 still sleeps, so
	// only the rule keeps seq 5 from being queued behind seq 3; worker 0
	// then steals it well before worker 1 is done with seq 3.
	cfg.TokenDelay = func(iter, wid int) time.Duration {
		if wid == 1 {
			return 40 * time.Millisecond
		}
		return 0
	}
	cfg.Delay = func(iter, wid int) time.Duration {
		if wid == 0 {
			return 60 * time.Millisecond
		}
		return 0
	}
	const last = 5
	res, watched := runAheadSession(t, cfg)
	assertMatchesSequential(t, cfg, res)
	straggler, helper := watched[1], watched[0]
	if straggler.peak != 2 {
		t.Fatalf("straggler held at most %d tokens, want 2: nothing was queued", straggler.peak)
	}
	if slices.Contains(straggler.queued, last) {
		t.Fatalf("straggler's last token was queued ahead: queued seqs %v", straggler.queued)
	}
	for it := 0; it < cfg.Iterations; it++ {
		if !slices.Contains(helper.assigned[it], last) {
			t.Fatalf("iteration %d: helper was assigned %v, want the straggler's last token %d", it, helper.assigned[it], last)
		}
	}
	if res.Steals != cfg.Iterations {
		t.Fatalf("Steals = %d, want one per iteration", res.Steals)
	}
}

// violation is how a fake worker breaks the report protocol on its first
// token from iteration 1 on.
type violation int

const (
	reportOthers      violation = iota // reports another worker's token, with its own gradients
	reportTwice                        // sends its report a second time
	reportShape                        // leaves a gradient tensor out
	reportCodec                        // reports under a codec nobody negotiated
	reportRank1Rows                    // sends a weight gradient of a many-row token as factors
	reportRank1Shape                   // swaps a weight gradient's factors: right length, wrong shape
	reportRank1Length                  // cuts δ of a weight gradient's factors short
)

// runViolator speaks the worker protocol honestly except for v.
func runViolator(wid int, conn transport.Conn, cfg Config, v violation) {
	w := NewWorker(wid, mlp(), blobs(), cfg)
	if err := conn.Send(&transport.Message{Kind: transport.KindRegister, WID: wid}); err != nil {
		return
	}
	violated := false
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
			report, err := w.train(m.Token)
			if err != nil {
				return
			}
			sends := []*transport.Message{report}
			if m.Iter >= 1 && !violated {
				violated = true
				switch v {
				case reportOthers:
					report.Token.Seq-- // worker 0's shard: seq mod 2 == 0
				case reportTwice:
					sends = append(sends, report)
				case reportShape:
					report.Grads = report.Grads[:len(report.Grads)-1]
				case reportCodec:
					report.SetGradCodec(transport.CompressTopK)
				case reportRank1Rows:
					w0 := w.net.Params()[0]
					r1 := make([]transport.Rank1Section, len(report.Grads))
					r1[0] = transport.Rank1Section{X: make([]float32, w0.Shape[0]), D: make([]float32, w0.Shape[1])}
					report.Grads[0] = nil
					report.SetRank1(r1)
				case reportRank1Shape:
					r1 := report.Rank1()
					r1[0].X, r1[0].D = r1[0].D, r1[0].X
				case reportRank1Length:
					r1 := report.Rank1()
					r1[0].D = r1[0].D[:len(r1[0].D)-1]
				}
			}
			for _, s := range sends {
				if err := conn.Send(s); err != nil {
					return
				}
			}
			_ = conn.Send(&transport.Message{Kind: transport.KindRequest, WID: wid})
		case transport.KindShutdown:
			return
		}
	}
}

// TestChaosReportProtocolViolations: a report for a token its sender does
// not hold (another worker's, or its own a second time), a report missing
// a tensor and a report under an unnegotiated codec are protocol
// violations by that worker, which the session tolerates (see
// assertViolatorDies).
func TestChaosReportProtocolViolations(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    violation
	}{
		{"others-token", reportOthers},
		{"repeat", reportTwice},
		{"shape", reportShape},
		{"codec", reportCodec},
	} {
		t.Run(tc.name+"/tolerant", func(t *testing.T) {
			assertViolatorDies(t, chaosCfg(), tc.v)
		})
	}
}

// assertViolatorDies runs two workers on cfg, worker 1 committing v, and
// holds the session to its one failure policy: worker 1 dies with class
// protocol and the session ends where Sequential does.
func assertViolatorDies(t *testing.T, cfg Config, v violation) {
	t.Helper()
	dumpFlightOnFailure(t)
	cfg.Workers = 2
	throttleHealthy(&cfg, 1)
	conns := make([]transport.Conn, cfg.Workers)
	for wid := range conns {
		server, client := transport.Pair()
		conns[wid] = server
		if wid == 1 {
			go runViolator(wid, client, cfg, v)
			continue
		}
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { _ = w.Run(client) }()
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runCoordinator(t, co, conns)
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertMatchesSequential(t, cfg, out.res)
	if !slices.Equal(out.res.DeadWorkers, []int{1}) {
		t.Fatalf("DeadWorkers = %v, want [1]", out.res.DeadWorkers)
	}
	if st := metrics.SummarizeFaults(out.res.Faults); st.ByClass["protocol"] != 1 {
		t.Fatalf("faults by class %v, want one protocol violation", st.ByClass)
	}
}

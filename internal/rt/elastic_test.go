package rt

import (
	"reflect"
	"testing"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/trace"
	"fela/internal/transport"
)

// elasticCfg returns a fault-tolerant session config with the given
// policy installed.
func elasticCfg(pol MembershipPolicy, iters int) Config {
	cfg := baseCfg()
	cfg.Workers = 2
	cfg.Iterations = iters
	cfg.WorkerTimeout = 400 * time.Millisecond
	cfg.Elastic = pol
	return cfg
}

// admitAllPolicy is the trivial membership policy: admit every joiner,
// complete every drain, never evict, round-robin ownership.
type admitAllPolicy struct{}

func (admitAllPolicy) AtBarrier(info BarrierInfo) Decision {
	return Decision{AdmitJoins: info.PendingJoins, CompleteLeaves: info.PendingLeaves}
}
func (admitAllPolicy) Distribution(nTok int, live []int) []int { return nil }

// scriptedPolicy wraps a policy to make membership changes land at
// exact barriers: admissions are deferred to the scripted iteration and
// evictions injected, so tests can assert exact ScaleEvent sequences.
type scriptedPolicy struct {
	inner   MembershipPolicy
	admitAt map[int]int   // barrier iter -> joiners to admit
	evictAt map[int][]int // barrier iter -> workers to evict
	// dists records the ownership vector handed to the engine per
	// Distribution call (one per iteration), nil for round-robin.
	dists [][]int
}

func (p *scriptedPolicy) AtBarrier(info BarrierInfo) Decision {
	dec := p.inner.AtBarrier(info)
	dec.AdmitJoins = p.admitAt[info.Iter]
	dec.Evict = p.evictAt[info.Iter]
	return dec
}

func (p *scriptedPolicy) Distribution(nTok int, live []int) []int {
	d := p.inner.Distribution(nTok, live)
	p.dists = append(p.dists, append([]int(nil), d...))
	return d
}

// elasticHarness wires an elastic session: cfg.Workers initial workers
// plus joiners pre-connected (their join requests are pending before the
// first barrier; the scripted policy decides when each is admitted).
type elasticHarness struct {
	co    *Coordinator
	conns []transport.Conn
	// admitted are the coordinator's ends of the join candidates' conns.
	// run closes them with conns once the session ends, so that no pump
	// outlives it.
	admitted []transport.Conn
	joinWID  chan int
}

// newElasticHarness builds the session over conns made by pair. joiners
// is the number of pre-connected join candidates; drain scripts ride on
// cfg.Drain.
func newElasticHarness(t *testing.T, cfg Config, joiners int, pair pairFunc) *elasticHarness {
	t.Helper()
	dumpFlightOnFailure(t)
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &elasticHarness{co: co, joinWID: make(chan int, joiners)}
	h.conns = make([]transport.Conn, cfg.Workers)
	for wid := range h.conns {
		var client transport.Conn
		h.conns[wid], client = pair(t)
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { _ = w.Run(client) }()
	}
	for i := 0; i < joiners; i++ {
		client := h.admit(t, pair)
		go func() {
			wid, _ := Join(client, mlp(), blobs(), cfg)
			h.joinWID <- wid
		}()
	}
	// Wait until every join request sits in the coordinator's event queue
	// (nothing drains it before Run), so each is pending before the first
	// barrier however fast the session trains.
	for deadline := time.Now().Add(10 * time.Second); len(co.events) < joiners; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("join requests never reached the coordinator")
		}
	}
	return h
}

// admit makes a pair, hands its coordinator end to the session as a join
// candidate and returns the candidate's end.
func (h *elasticHarness) admit(t *testing.T, pair pairFunc) transport.Conn {
	t.Helper()
	server, client := pair(t)
	if err := h.co.Admit(server); err != nil {
		t.Fatal(err)
	}
	h.admitted = append(h.admitted, server)
	return client
}

func (h *elasticHarness) run(t *testing.T) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := h.co.Run(h.conns)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		for _, c := range append(h.conns, h.admitted...) {
			c.Close()
		}
		if out.err != nil {
			t.Fatalf("coordinator failed: %v", out.err)
		}
		return out.res
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung")
		return nil
	}
}

// awaitLeave makes every worker but wid start the session's last
// iteration only once the coordinator has taken in wid's leave (its
// "drain" flight event), so that the leave completes at a barrier
// however the goroutines are scheduled. cfg.Drain must make wid leave.
func awaitLeave(t *testing.T, cfg *Config, wid int) {
	flight := obs.NewFlightRecorder(1024)
	cfg.Flight = flight
	inner, last := cfg.Delay, cfg.Iterations-1
	drained := func() bool {
		for _, ev := range flight.Snapshot(0) {
			if ev.Event == "drain" && ev.Worker == wid {
				return true
			}
		}
		return false
	}
	cfg.Delay = func(iter, w int) time.Duration {
		if w != wid && iter == last {
			for deadline := time.Now().Add(10 * time.Second); !drained(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("worker %d's leave never reached the coordinator", wid)
					break
				}
			}
		}
		if inner != nil {
			return inner(iter, w)
		}
		return 0
	}
}

// assertElasticOutcome checks the invariants every elastic run must
// keep: bit-identity to Sequential, full token conservation, and the
// exact scripted scale sequence.
func assertElasticOutcome(t *testing.T, cfg Config, res *Result, wantScales []string) {
	t.Helper()
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		t.Fatal("elastic run diverged from sequential reference")
	}
	total := 0
	for _, n := range res.TokensByWorker {
		total += n
	}
	if want := cfg.Iterations * cfg.TotalBatch / cfg.TokenBatch; total != want {
		t.Fatalf("tokens trained = %d, want %d", total, want)
	}
	if got := metrics.ScaleSequence(res.Scales); !reflect.DeepEqual(got, wantScales) {
		t.Fatalf("scale sequence = %v, want %v", got, wantScales)
	}
}

// delayWIDs slows the listed workers at every iteration start so the
// others (joiners, drain candidates) reliably get to train tokens; the
// tiny MLP is otherwise drained by whoever's goroutine runs first.
func delayWIDs(cfg *Config, wids ...int) {
	slow := map[int]bool{}
	for _, w := range wids {
		slow[w] = true
	}
	cfg.Delay = func(iter, wid int) time.Duration {
		if slow[wid] {
			return 10 * time.Millisecond
		}
		return 0
	}
}

// TestElasticJoinMidTraining: a worker joins a 2-worker session at the
// barrier after iteration 1, trains from iteration 2 on, and the result
// stays bit-identical to Sequential.
func TestElasticJoinMidTraining(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}, admitAt: map[int]int{1: 1}}
	cfg := elasticCfg(pol, 6)
	delayWIDs(&cfg, 0, 1)
	h := newElasticHarness(t, cfg, 1, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"join:2"})
	if res.Scales[0].Iter != 2 {
		t.Errorf("join effective at iteration %d, want 2", res.Scales[0].Iter)
	}
	if wid := <-h.joinWID; wid != 2 {
		t.Errorf("joiner was assigned wid %d, want 2", wid)
	}
	if len(res.TokensByWorker) != 3 || res.TokensByWorker[2] == 0 {
		t.Errorf("joiner trained no tokens: %v", res.TokensByWorker)
	}
	if len(res.Faults) != 0 || len(res.DeadWorkers) != 0 {
		t.Errorf("clean join produced faults %v dead %v", res.Faults, res.DeadWorkers)
	}
}

// TestElasticDrain: a worker announces a graceful leave at iteration 3;
// the drain completes at that barrier, no fault is recorded, and the
// training result is unchanged.
func TestElasticDrain(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}}
	cfg := elasticCfg(pol, 6)
	cfg.Workers = 3
	cfg.Drain = func(iter, wid int) bool { return wid == 1 && iter >= 3 }
	delayWIDs(&cfg, 0, 2)
	h := newElasticHarness(t, cfg, 0, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"leave:1"})
	if res.Scales[0].Iter != 4 {
		t.Errorf("leave effective at iteration %d, want 4", res.Scales[0].Iter)
	}
	if len(res.Faults) != 0 || len(res.DeadWorkers) != 0 {
		t.Errorf("graceful drain recorded faults %v dead %v", res.Faults, res.DeadWorkers)
	}
}

// TestElasticJoinAndLeaveSameBarrier: a join and a leave land in the
// same barrier window; the join is applied first and the scripted event
// sequence is exact.
func TestElasticJoinAndLeaveSameBarrier(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}, admitAt: map[int]int{1: 1}}
	cfg := elasticCfg(pol, 6)
	cfg.Drain = func(iter, wid int) bool { return wid == 0 && iter >= 1 }
	delayWIDs(&cfg, 1)
	h := newElasticHarness(t, cfg, 1, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"join:2", "leave:0"})
	for _, ev := range res.Scales {
		if ev.Iter != 2 {
			t.Errorf("event %v effective at iteration %d, want 2", ev, ev.Iter)
		}
	}
}

// TestElasticDrainRacingDeath: a worker announces a leave while holding
// a token, then its connection dies before the barrier. The departure
// was planned, so the tokens flow back through the reclaim path, the
// leave completes as scheduled, and no fault or death is recorded.
func TestElasticDrainRacingDeath(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}}
	cfg := elasticCfg(pol, 4)
	cfg.Workers = 3
	delayWIDs(&cfg, 0, 2)

	h := &elasticHarness{}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.co = co
	h.conns = make([]transport.Conn, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		var client transport.Conn
		h.conns[wid], client = pipePair(t)
		if wid == 1 {
			// Scripted: behave until iteration 2, then announce the
			// leave with an assigned token outstanding and drop dead.
			go func() {
				w := NewWorker(1, mlp(), blobs(), cfg)
				if err := client.Send(&transport.Message{Kind: transport.KindRegister, WID: 1}); err != nil {
					return
				}
				for {
					m, err := client.Recv()
					if err != nil {
						return
					}
					switch m.Kind {
					case transport.KindIterStart:
						w.setParams(m.Params)
						_ = client.Send(&transport.Message{Kind: transport.KindRequest, WID: 1})
					case transport.KindAssign:
						if m.Iter >= 2 {
							_ = client.Send(&transport.Message{Kind: transport.KindLeave, WID: 1})
							client.Close()
							return
						}
						report, err := w.train(m.Token)
						if err != nil {
							return
						}
						if err := client.Send(report); err != nil {
							return
						}
						_ = client.Send(&transport.Message{Kind: transport.KindRequest, WID: 1})
					case transport.KindShutdown:
						return
					}
				}
			}()
			continue
		}
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { _ = w.Run(client) }()
	}
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"leave:1"})
	if res.Reassigned == 0 {
		t.Error("drained worker held a token but nothing was reclaimed")
	}
	if len(res.Faults) != 0 || len(res.DeadWorkers) != 0 {
		t.Errorf("planned departure recorded faults %v dead %v", res.Faults, res.DeadWorkers)
	}
}

// TestElasticFullScaleStory is the headline scenario: a session scales
// 2 -> 4 -> 1 across one training run — two joins at one barrier, three
// drains at a later one — with the exact scripted event sequence and a
// bit-identical result.
func TestElasticFullScaleStory(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}, admitAt: map[int]int{1: 2}}
	cfg := elasticCfg(pol, 8)
	cfg.Drain = func(iter, wid int) bool {
		return iter >= 5 && (wid == 0 || wid == 2 || wid == 3)
	}
	delayWIDs(&cfg, 0, 1)
	// Every token sleeps a moment, so neither joiner can train whole
	// iterations while the other's goroutine waits to be scheduled.
	cfg.TokenDelay = func(iter, wid int) time.Duration { return time.Millisecond }
	h := newElasticHarness(t, cfg, 2, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res,
		[]string{"join:2", "join:3", "leave:0", "leave:2", "leave:3"})
	if res.TokensByWorker[2] == 0 || res.TokensByWorker[3] == 0 {
		t.Errorf("joiners trained no tokens: %v", res.TokensByWorker)
	}
	// Iterations 6 and 7 run on worker 1 alone.
	if res.TokensByWorker[1] < 2*cfg.TotalBatch/cfg.TokenBatch {
		t.Errorf("surviving worker trained %d tokens, want at least the last two iterations' %d",
			res.TokensByWorker[1], 2*cfg.TotalBatch/cfg.TokenBatch)
	}
}

// TestElasticEviction: the policy evicts a worker at a barrier; the
// worker receives a clean shutdown and the run completes bit-identically.
func TestElasticEviction(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}, evictAt: map[int][]int{2: {0}}}
	cfg := elasticCfg(pol, 6)
	cfg.Workers = 3
	h := newElasticHarness(t, cfg, 0, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"evict:0"})
	if res.Scales[0].Iter != 3 {
		t.Errorf("eviction effective at iteration %d, want 3", res.Scales[0].Iter)
	}
	if len(res.Faults) != 0 || len(res.DeadWorkers) != 0 {
		t.Errorf("eviction recorded faults %v dead %v", res.Faults, res.DeadWorkers)
	}
}

// TestElasticJoinRacingDeath: a pending joiner dies before its barrier;
// the session records the fault against the join phase and continues
// untouched.
func TestElasticJoinRacingDeath(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}, admitAt: map[int]int{3: 1}}
	cfg := elasticCfg(pol, 5)
	delayWIDs(&cfg, 0, 1) // keep iterations slow enough to outlast the joiner
	h := newElasticHarness(t, cfg, 0, pipePair)
	client := h.admit(t, pipePair)
	if err := client.Send(&transport.Message{Kind: transport.KindJoin}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{})
	if len(res.DeadWorkers) != 0 {
		t.Errorf("a never-admitted joiner cannot die as a worker: %v", res.DeadWorkers)
	}
	if len(res.Faults) != 1 {
		t.Errorf("the dead joiner should be one recorded fault, got %v", res.Faults)
	}
}

// TestElasticScalesAreTraced: join and leave marks land in the trace
// alongside fault marks and render in the timeline legend. Worker 0's
// leave is taken in before the last iteration (awaitLeave), so both
// scale events happen in every run.
func TestElasticScalesAreTraced(t *testing.T) {
	pol := &scriptedPolicy{inner: admitAllPolicy{}, admitAt: map[int]int{1: 1}}
	cfg := elasticCfg(pol, 6)
	cfg.Drain = func(iter, wid int) bool { return wid == 0 && iter >= 3 }
	tr := &trace.Trace{}
	cfg.Trace = tr
	delayWIDs(&cfg, 1)
	awaitLeave(t, &cfg, 0)
	h := newElasticHarness(t, cfg, 1, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"join:2", "leave:0"})
	joins, leaves := tr.ByKind(trace.Join), tr.ByKind(trace.Leave)
	if len(joins) != 1 || joins[0].Worker != 2 {
		t.Errorf("join trace = %v, want one mark for worker 2", joins)
	}
	if len(leaves) != 1 || leaves[0].Worker != 0 {
		t.Errorf("leave trace = %v, want one mark for worker 0", leaves)
	}
}

// TestElasticAdmitRequiresElastic: Admit without Config.Elastic is
// rejected.
func TestElasticAdmitRequiresElastic(t *testing.T) {
	co, err := NewCoordinator(mlp(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	server, _ := pipePair(t)
	if err := co.Admit(server); err == nil {
		t.Fatal("Admit succeeded on a non-elastic session")
	}
}

// TestElasticDistributionChangesAfterScaleUp is the online re-tuning
// acceptance property at the engine level: after a scripted 2 -> 4
// scale-up, the ownership distribution handed to the engine includes
// the joiners within three iterations of the scale event — driven by
// live per-iteration timings only (the policy here never builds a
// cluster; it reshapes ownership from the engine's timing signal).
func TestElasticDistributionChangesAfterScaleUp(t *testing.T) {
	pol := &scriptedPolicy{inner: &timingPolicy{}, admitAt: map[int]int{1: 2}}
	cfg := elasticCfg(pol, 8)
	delayWIDs(&cfg, 0, 1)
	h := newElasticHarness(t, cfg, 2, pipePair)
	res := h.run(t)
	assertElasticOutcome(t, cfg, res, []string{"join:2", "join:3"})

	// pol.dists[i] is the ownership vector of iteration i (nil means
	// round-robin over the live set). The joiners are live from
	// iteration 2; their first owned token must appear by iteration 5.
	const joinIter, window = 2, 3
	first := -1
	for i, d := range pol.dists {
		for _, owner := range d {
			if owner >= 2 {
				first = i
				break
			}
		}
		if first >= 0 {
			break
		}
	}
	if first < 0 {
		t.Fatalf("joiners never owned a token; distributions: %v", pol.dists)
	}
	if first > joinIter+window {
		t.Errorf("distribution first included joiners at iteration %d, want <= %d", first, joinIter+window)
	}
}

// timingPolicy is a minimal live-timing re-tuner used to exercise the
// engine-side Distribution plumbing without importing internal/elastic
// (which would be an import cycle from this package's tests... it would
// not, but keeping the engine test self-contained pins the contract:
// any policy fed only BarrierInfo timings can reshape ownership). It
// gives every worker it has seen train at least one token an equal
// share.
type timingPolicy struct {
	seen map[int]bool
}

func (p *timingPolicy) AtBarrier(info BarrierInfo) Decision {
	if p.seen == nil {
		p.seen = map[int]bool{}
	}
	for wid, n := range info.TokensByWorker {
		if n > 0 {
			p.seen[wid] = true
		}
	}
	return Decision{AdmitJoins: info.PendingJoins, CompleteLeaves: info.PendingLeaves}
}

func (p *timingPolicy) Distribution(nTok int, live []int) []int {
	var eligible []int
	for _, wid := range live {
		if p.seen[wid] {
			eligible = append(eligible, wid)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	out := make([]int, nTok)
	for seq := range out {
		out[seq] = eligible[seq%len(eligible)]
	}
	return out
}

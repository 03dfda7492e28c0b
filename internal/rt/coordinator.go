package rt

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/tensor"
	"fela/internal/trace"
	"fela/internal/transport"
)

// Coordinator is the real-time Token Server plus the BSP parameter
// synchronizer. It owns the master copy of the model, seeds one STB per
// worker each iteration, serves pull requests (own shard first, queued a
// window ahead, then stealing from the largest backlog one token at a
// time), and applies the canonical-order gradient aggregation that makes
// the run bit-equal to Sequential.
//
// Every worker fault is a death verdict: a worker whose connection
// errors, that violates the protocol, whose send fails, or that sits on
// an assigned token past Config.WorkerTimeout (when set) is declared
// dead. Its unreported tokens return to the pool, parked pull requests
// are re-served, and the iteration completes on the survivors — the
// paper's reactive straggler mitigation (§III-A) extended from slowness
// to outright crashes. The session fails only when no worker is left to
// train. Because aggregation stays in canonical token order, the result
// remains bit-identical to Sequential no matter which workers die or
// when.
//
// With Config.Elastic set, membership is live: connections handed to
// Admit may join mid-session, workers may drain out gracefully, and the
// policy may evict workers — all applied at iteration barriers, so every
// iteration runs under one fixed membership. A graceful leave is a
// planned death: the drainer's outstanding tokens flow back through the
// same return path as a crashed worker's, which is why elasticity adds
// no new failure semantics.
type Coordinator struct {
	net *minidnn.Network
	cfg Config

	start   time.Time
	events  chan event
	workers []*workerState
	byConn  map[transport.Conn]*workerState
	res     *Result

	// initial marks the connections handed to Run (vs admitted later);
	// rejected marks connections shut for protocol violations, so their
	// pump's closing error is not double-counted.
	initial  map[transport.Conn]bool
	rejected map[transport.Conn]bool

	// admMu guards admitted, the connections handed to Admit by
	// listener goroutines; everything else is coordinator-goroutine
	// state.
	admMu    sync.Mutex
	admitted []transport.Conn

	// pendingJoins are admitted connections that asked to join, FIFO;
	// pendingLeaves are workers that announced a drain. Both wait for an
	// iteration barrier. pendingJoinReq remembers each pending joiner's
	// requested gradient codec until admission negotiates it.
	pendingJoins   []transport.Conn
	pendingJoinReq map[transport.Conn]transport.Compression
	pendingLeaves  []*workerState

	// Per-iteration state.
	it         int
	tokens     []*tokenState
	waiting    []*workerState // parked pull requests, FIFO
	iterTokens map[int]int    // tokens reported per worker this iteration

	// acc is the iteration's gradient sum: tokens[:folded] have been
	// added into it, each weighted by frac, in seq order (see fold) —
	// except the rank-1 sections still pending in runs, which the
	// barrier adds (see step). A section's sum is allocated at its first
	// dense or top-k add and kept (sum); a section that has only ever
	// been folded from runs has none. The barrier leaves acc cleared to
	// +0. params is the model's parameter tensors, in the same order,
	// and vel the optimizer's velocity, nil without momentum (velocity).
	params []*tensor.Tensor
	vel    []*tensor.Tensor
	acc    []*tensor.Tensor
	runs   []factorRun
	frac   float32
	folded int

	// backlog and batch are serve's scratch space (see selectBatch):
	// unassigned tokens per owner wid, and the batch being assigned.
	backlog []int
	batch   []*tokenState

	// Telemetry (internal/obs). tele instruments are nil-safe no-ops
	// when Config.Metrics is nil; status is the atomically published
	// /statusz snapshot; rates holds the per-worker EWMA token rates;
	// iterSpan is the current iteration's root span, whose context the
	// iter-start broadcast carries to workers.
	tele     coTelemetry
	status   atomic.Pointer[Status]
	rates    map[int]float64
	iterSpan *obs.Span
	flight   *obs.FlightRecorder
}

// NewCoordinator wraps the master network.
func NewCoordinator(net *minidnn.Network, cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		net:            net,
		cfg:            cfg,
		events:         make(chan event, 16*cfg.Workers+64),
		byConn:         map[transport.Conn]*workerState{},
		initial:        map[transport.Conn]bool{},
		rejected:       map[transport.Conn]bool{},
		tele:           newCoTelemetry(cfg.Metrics),
		rates:          map[int]float64{},
		pendingJoinReq: map[transport.Conn]transport.Compression{},
		flight:         obs.FlightOr(cfg.Flight),
		start:          time.Now(),
		res:            &Result{TokensByWorker: make([]int, cfg.Workers)},
		it:             -1,
	}
	// Publish an initial snapshot so /statusz answers from the moment
	// the coordinator exists, not only after registration completes.
	co.publishStatus()
	return co, nil
}

type event struct {
	msg  *transport.Message
	err  error
	conn transport.Conn
}

// tokenState tracks one token within an iteration.
type tokenState struct {
	info     transport.TokenInfo
	assigned bool
	done     bool
	// report is the validated report of a done token that is not folded
	// yet: it arrived ahead of a lower seq and waits, pooled payload and
	// all, for its turn. nil before the report and after the fold.
	report *transport.Message
	loss   float64
	// span is the coordinator-side round-trip span of the current
	// assignment (nil when tracing is off); its context rode to the
	// worker inside the assign message.
	span *obs.Span
}

// workerState tracks one worker across the session.
type workerState struct {
	wid   int
	conn  transport.Conn
	alive bool
	// draining marks a worker that announced a graceful leave: it no
	// longer receives tokens and departs at the next barrier.
	draining bool
	// departed marks a planned removal (drain or eviction) as opposed
	// to a death; departed workers never appear in DeadWorkers.
	departed bool
	// outstanding is the set of assigned-but-unreported token seqs, and
	// progress the worker's last sign of progress on them: the assign
	// that gave it work when it held none, or its latest report. Hang
	// detection and the token-latency histogram time from progress, so a
	// token queued behind others counts from when the worker can start
	// it, not from its assign.
	outstanding map[int]struct{}
	progress    time.Time
	// codec is the gradient codec negotiated at registration: the
	// worker's request when it matches Config.Compress, exact otherwise.
	// Reports must arrive under this codec or exact (transports without
	// codec support degrade to exact, which is always legal).
	codec transport.Compression
	// tokens is the worker's fela_rt_tokens_total series, looked up once
	// at registration or admission instead of on every report.
	tokens *obs.Counter
}

// errWorkerHung marks a deadline expiry on an assigned token.
var errWorkerHung = errors.New("rt: worker deadline expired with token outstanding")

// errProtocol marks a well-formed message that violates the protocol
// state machine (e.g. a token request before registration).
var errProtocol = errors.New("rt: protocol violation")

// recordFlight stamps a coordinator protocol event into the flight
// recorder with the current iteration filled in.
func (co *Coordinator) recordFlight(event string, wid int, trace string, detail string) {
	ev := obs.Evt("rt", event)
	ev.Worker = wid
	ev.Iter = co.it
	ev.Trace = trace
	ev.Detail = detail
	co.flight.Record(ev)
}

// negotiate resolves a worker's requested gradient codec against the
// session's permit (Config.Compress): the request wins only when it
// matches the permit exactly; any mismatch degrades to lossless. wid is
// only for the flight record (-1 for not-yet-admitted joiners).
func (co *Coordinator) negotiate(wid int, req transport.Compression) transport.Compression {
	neg := transport.CompressExact
	if req.Valid() && req == co.cfg.Compress {
		neg = req
	}
	if req != transport.CompressExact || co.cfg.Compress != transport.CompressExact {
		co.recordFlight("compress.negotiate", wid, "",
			fmt.Sprintf("req=%v permit=%v negotiated=%v", req, co.cfg.Compress, neg))
	}
	return neg
}

// elastic reports whether live membership is enabled.
func (co *Coordinator) elastic() bool { return co.cfg.Elastic != nil }

// pump forwards a connection's messages into the event loop until the
// connection errors.
func (co *Coordinator) pump(c transport.Conn) {
	go func() {
		for {
			m, err := c.Recv()
			co.events <- event{m, err, c}
			if err != nil {
				return
			}
		}
	}()
}

// Admit hands a freshly accepted connection to an elastic session. The
// peer must introduce itself with a join message; it becomes a worker at
// an iteration barrier, subject to the membership policy. Admit is safe
// to call from listener goroutines concurrently with Run, before or
// during the session.
func (co *Coordinator) Admit(c transport.Conn) error {
	if !co.elastic() {
		return fmt.Errorf("rt: Admit requires an elastic session (Config.Elastic)")
	}
	c = transport.Instrument(c, co.cfg.Metrics)
	co.admMu.Lock()
	co.admitted = append(co.admitted, c)
	co.admMu.Unlock()
	co.pump(c)
	return nil
}

// Run drives a full session over the given worker connections. It
// returns after broadcasting shutdown. Connections are not closed unless
// their worker is declared dead or departs.
func (co *Coordinator) Run(conns []transport.Conn) (*Result, error) {
	if len(conns) != co.cfg.Workers {
		return nil, fmt.Errorf("rt: %d connections for %d workers", len(conns), co.cfg.Workers)
	}
	co.start = time.Now()
	co.res = &Result{TokensByWorker: make([]int, co.cfg.Workers)}
	co.workers = make([]*workerState, co.cfg.Workers)
	for wid := range co.workers {
		co.workers[wid] = &workerState{wid: wid, outstanding: map[int]struct{}{}}
	}
	// Wrap every connection with telemetry (a no-op pass-through when
	// Config.Metrics is nil); the wrapped handle is the identity used in
	// byConn/initial from here on.
	conns = append([]transport.Conn(nil), conns...)
	for i, c := range conns {
		conns[i] = transport.Instrument(c, co.cfg.Metrics)
	}
	for _, c := range conns {
		co.initial[c] = true
		co.pump(c)
	}

	if err := co.register(conns); err != nil {
		return nil, err
	}
	co.it = -1 // no iteration completed yet; the loop below resets it
	co.publishStatus()
	co.tele.live.Set(float64(co.trainableCount()))

	nTok := co.cfg.tokensPerIter()
	co.initFold()

	// Restore a checkpointed session: install the barrier state, replay
	// the loss history, and start the loop at the next iteration. The
	// canonical-order aggregation then recomputes the uncheckpointed
	// tail exactly as an uninterrupted run would have.
	startIter := 0
	if r := co.cfg.Resume; r != nil {
		if err := InstallFlat(co.params, r.Params); err != nil {
			return nil, fmt.Errorf("rt: resume params: %w", err)
		}
		if err := installVel(co.vel, co.params, r.Vel); err != nil {
			return nil, fmt.Errorf("rt: resume velocity: %w", err)
		}
		co.res.Losses = append(co.res.Losses, r.Losses...)
		startIter = r.Iter + 1
		co.recordFlight("restore.resume", -1, "",
			fmt.Sprintf("iter=%d of %d", r.Iter, co.cfg.Iterations))
	}

	for co.it = startIter; co.it < co.cfg.Iterations; co.it++ {
		iterStart := time.Now()
		if err := co.runIteration(nTok); err != nil {
			return nil, err
		}
		// Every gradient is in co.acc or pending in co.runs, in seq order
		// (see fold); step adds the pending runs and takes the optimizer
		// step. The losses sum in the same order.
		barrierStart := time.Now()
		var loss float64
		for _, tok := range co.tokens {
			loss += tok.loss / float64(nTok)
		}
		co.step()
		co.res.Losses = append(co.res.Losses, loss)
		if co.cfg.checkpointDue(co.it) {
			// The hook gets copies (flatten allocates): the checkpoint
			// must not alias live state the next iteration mutates.
			if err := co.cfg.Checkpoint(co.it, flatten(co.params), flatVel(co.vel, co.params), slices.Clone(co.res.Losses)); err != nil {
				return nil, fmt.Errorf("rt: checkpoint at iteration %d: %w", co.it, err)
			}
		}
		iterTime := time.Since(iterStart)
		co.observeIteration(iterTime)
		co.applyMembership(iterTime)
		co.tele.barrier.Observe(time.Since(barrierStart).Seconds())
		co.recordFlight("barrier", -1, co.iterSpan.Context().TraceHex(),
			fmt.Sprintf("live=%d iter_ms=%d", co.trainableCount(), iterTime.Milliseconds()))
		co.iterSpan.End()
		co.iterSpan = nil
		co.publishStatus()
	}

	for _, ws := range co.workers {
		if !ws.alive {
			continue
		}
		if err := ws.conn.Send(&transport.Message{Kind: transport.KindShutdown}); err != nil {
			co.markDead(ws, "shutdown", err)
		}
	}
	co.closeLeftoverAdmitted()
	for _, ws := range co.workers {
		if !ws.alive && !ws.departed {
			co.res.DeadWorkers = append(co.res.DeadWorkers, ws.wid)
		}
	}
	co.res.Params = co.net.CloneParams()
	co.publishStatus()
	return co.res, nil
}

// closeLeftoverAdmitted shuts down admitted connections that never
// became workers (still waiting for admission, or never sent a join).
func (co *Coordinator) closeLeftoverAdmitted() {
	co.admMu.Lock()
	admitted := co.admitted
	co.admMu.Unlock()
	for _, c := range admitted {
		if _, became := co.byConn[c]; became {
			continue
		}
		_ = c.Send(&transport.Message{Kind: transport.KindShutdown})
		c.Close()
	}
	co.pendingJoins = nil
	co.pendingJoinReq = map[transport.Conn]transport.Compression{}
}

// register pairs worker ids with connections. A connection that dies,
// stays silent past WorkerTimeout (when set), or violates the protocol
// forfeits its slot without taking the session down; the session
// proceeds if at least one worker registered.
func (co *Coordinator) register(conns []transport.Conn) error {
	resolved := 0
	var deadline <-chan time.Time
	if co.cfg.WorkerTimeout > 0 {
		tm := time.NewTimer(co.cfg.WorkerTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
wait:
	for resolved < len(conns) {
		select {
		case ev := <-co.events:
			if ev.err != nil {
				if co.rejected[ev.conn] {
					continue // already accounted when it was rejected
				}
				if ws, known := co.byConn[ev.conn]; known {
					// Registered, then died before the first iteration.
					co.markDead(ws, "register", ev.err)
					continue
				}
				if !co.initial[ev.conn] {
					co.dropPendingJoin(ev.conn, "register", ev.err)
					continue
				}
				resolved++
				co.recordFault(-1, "register", transport.Classify(ev.err).String(), ev.err.Error())
				continue
			}
			if ws, known := co.byConn[ev.conn]; known {
				// A registered worker must stay quiet until iter-start.
				co.markDead(ws, "register", fmt.Errorf("%w: worker %d sent %v during registration", errProtocol, ws.wid, ev.msg.Kind))
				continue
			}
			if co.elastic() && ev.msg.Kind == transport.KindJoin {
				// An early joiner: park it for the first barrier. If it
				// arrived on one of the initial connections it consumed a
				// registration slot, which the session absorbs.
				co.pendingJoins = append(co.pendingJoins, ev.conn)
				co.pendingJoinReq[ev.conn] = ev.msg.GradCodec()
				if co.initial[ev.conn] {
					resolved++
				}
				continue
			}
			wid := ev.msg.WID
			var detail string
			switch {
			case ev.msg.Kind != transport.KindRegister:
				detail, wid = fmt.Sprintf("expected register, got %v (wid field %d)", ev.msg.Kind, wid), -1
			case wid < 0 || wid >= co.cfg.Workers:
				detail, wid = fmt.Sprintf("worker id %d out of range [0,%d)", wid, co.cfg.Workers), -1
			case co.workers[wid].conn != nil:
				detail = fmt.Sprintf("duplicate worker id %d", wid)
			}
			if detail != "" {
				// Shoot only the offending connection, named by its slot
				// index so the operator knows which peer misbehaved.
				co.rejected[ev.conn] = true
				ev.conn.Close()
				co.recordFault(wid, "register", "protocol", fmt.Sprintf("conn %d: %s", co.connIndex(conns, ev.conn), detail))
				if co.initial[ev.conn] {
					resolved++
				}
				continue
			}
			ws := co.workers[wid]
			ws.conn = ev.conn
			ws.alive = true
			ws.codec = co.negotiate(wid, ev.msg.GradCodec())
			ws.tokens = co.tokenCounter(wid)
			co.byConn[ev.conn] = ws
			resolved++
		case <-deadline:
			// Whoever has not spoken by now forfeits registration.
			break wait
		}
	}
	live := 0
	for _, ws := range co.workers {
		if ws.alive {
			live++
		} else if ws.conn == nil {
			co.recordFault(ws.wid, "register", "missing", "never registered")
		}
	}
	if live == 0 {
		return fmt.Errorf("rt: no workers registered")
	}
	return nil
}

// tokenCounter is worker wid's fela_rt_tokens_total series.
func (co *Coordinator) tokenCounter(wid int) *obs.Counter {
	return co.cfg.Metrics.Counter(MetricTokensTotal, "worker", strconv.Itoa(wid))
}

// connIndex locates a connection among the initial slots (-1 for
// admitted connections).
func (co *Coordinator) connIndex(conns []transport.Conn, c transport.Conn) int {
	for i, cc := range conns {
		if cc == c {
			return i
		}
	}
	return -1
}

// runIteration seeds this iteration's tokens, broadcasts parameters, and
// collects every token's gradients, surviving worker deaths along the
// way. It fails only when no trainable worker is left.
func (co *Coordinator) runIteration(nTok int) error {
	// Seed tokens. Without elasticity a token seq's shard owner is seq
	// mod workers, so every worker starts with its own STB (Eq. 2's
	// floor); with elasticity the membership policy's re-tuner chooses
	// the distribution over the live set. Ownership only steers who
	// trains first — aggregation order is fixed by seq — so any
	// distribution preserves bitwise reproducibility.
	owners := co.ownership(nTok)
	if owners == nil {
		return fmt.Errorf("rt: no trainable workers at iteration %d start", co.it)
	}
	co.tokens = make([]*tokenState, nTok)
	for seq := 0; seq < nTok; seq++ {
		co.tokens[seq] = &tokenState{info: transport.TokenInfo{
			ID:    co.it*nTok + seq,
			Seq:   seq,
			Lo:    seq * co.cfg.TokenBatch,
			Hi:    (seq + 1) * co.cfg.TokenBatch,
			Owner: owners[seq],
		}}
	}
	co.folded = 0
	if len(co.backlog) != len(co.workers) {
		co.backlog = make([]int, len(co.workers))
	}
	co.waiting = co.waiting[:0]
	co.iterTokens = map[int]int{}
	// One root span per iteration; its context rides in the iter-start
	// broadcast so worker-side fetch/compute spans join the same trace.
	co.iterSpan = co.cfg.Spans.StartRoot("iteration", 0)
	co.broadcast()

	var tick <-chan time.Time
	if co.cfg.WorkerTimeout > 0 {
		period := co.cfg.WorkerTimeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		tick = ticker.C
	}

	remaining := nTok
	for remaining > 0 {
		// Checked before every wait, so no death verdict leaves the loop
		// blocked on workers that are all gone.
		if co.trainableCount() == 0 {
			return fmt.Errorf("rt: all workers lost at iteration %d with %d tokens unreported", co.it, remaining)
		}
		select {
		case ev := <-co.events:
			ws := co.byConn[ev.conn]
			if ws == nil {
				co.strayEvent(ev)
				continue
			}
			if ev.err != nil {
				if !ws.alive {
					continue // pump winding down after markDead closed it
				}
				if ws.draining {
					// A drain racing a real death: the departure was
					// already planned and its tokens already returned, so
					// finalize quietly; the leave completes (and is
					// recorded) at the barrier as scheduled.
					ws.alive = false
					ws.departed = true
					ws.conn.Close()
					continue
				}
				co.kill(ws, ev.err)
				continue
			}
			if !ws.alive {
				continue // zombie: message raced with the death verdict
			}
			m := ev.msg
			switch m.Kind {
			case transport.KindRequest:
				if ws.draining {
					continue // request in flight raced the leave announcement
				}
				if _, failed := co.serve(ws); failed {
					co.serveWaiting()
				}
			case transport.KindReport:
				if err := co.checkReport(ws, m); err != nil {
					m.Release()
					co.kill(ws, err)
					continue
				}
				seq := m.Token.Seq
				tok := co.tokens[seq]
				tok.done = true
				tok.report = m
				tok.loss = m.Loss
				now := time.Now()
				// The round-trip span's context makes the worst token the
				// histogram's exemplar — follow trace_id from a /metrics
				// scrape straight into the trace.
				co.tele.tokenLat.ObserveExemplar(now.Sub(ws.progress).Seconds(), tok.span.Context())
				tok.span.End()
				tok.span = nil
				delete(ws.outstanding, seq)
				// The token queued behind this one starts now.
				ws.progress = now
				co.res.TokensByWorker[ws.wid]++
				co.iterTokens[ws.wid]++
				ws.tokens.Inc()
				if tok.info.Owner != ws.wid {
					co.res.Steals++
					co.tele.steals.Inc()
				}
				remaining--
				co.fold()
			case transport.KindLeave:
				if !co.elastic() {
					co.kill(ws, fmt.Errorf("%w: worker %d sent leave without elastic mode", errProtocol, ws.wid))
					continue
				}
				co.announceDrain(ws)
				co.serveWaiting()
			default:
				co.kill(ws, fmt.Errorf("%w: worker %d sent unexpected %v mid-iteration", errProtocol, ws.wid, m.Kind))
			}
		case <-tick:
			now := time.Now()
			for _, ws := range co.workers {
				if !ws.alive || ws.draining {
					continue
				}
				if len(ws.outstanding) > 0 && now.Sub(ws.progress) > co.cfg.WorkerTimeout {
					co.markDead(ws, "iteration", errWorkerHung)
				}
			}
			co.serveWaiting()
		}
	}
	return nil
}

// kill declares ws dead mid-iteration and re-serves the parked pull
// requests its returned tokens can answer.
func (co *Coordinator) kill(ws *workerState, cause error) {
	co.markDead(ws, "iteration", cause)
	co.serveWaiting()
}

// broadcast sends the iteration's parameters to every trainable worker,
// joiners admitted at this barrier included. The iter-start message
// carries the live parameter tensors themselves: nothing changes them
// until the next barrier's optimizer step, and the fan-out is over by
// then. The frame is encoded once and each conn writes the tensors by
// writev; a conn that sends later (jobs.asyncConn) sends the
// Broadcast's one snapshot, which it takes here, during the fan-out.
func (co *Coordinator) broadcast() {
	ps := co.net.Params()
	params := make([][]float32, len(ps))
	for i, p := range ps {
		params[i] = p.Data
	}
	bc := transport.NewBroadcast(&transport.Message{
		Kind: transport.KindIterStart, Iter: co.it, Params: params, Span: co.iterSpan.Context(),
	})
	for _, ws := range co.workers {
		if !ws.alive || ws.draining {
			continue
		}
		if err := transport.SendBroadcast(ws.conn, bc); err != nil {
			co.markDead(ws, "iteration", err)
		}
	}
}

// initFold sets up the session's fold and step state: the parameters,
// the velocity, the weight of a token, and no sum and no run for any
// section yet.
func (co *Coordinator) initFold() {
	co.params = co.net.Params()
	co.vel = velocity(co.params, co.cfg)
	co.acc = make([]*tensor.Tensor, len(co.params))
	co.runs = make([]factorRun, len(co.params))
	co.frac = float32(co.cfg.TokenBatch) / float32(co.cfg.TotalBatch)
}

// sum is section i's dense sum, allocated (+0) at its first use.
func (co *Coordinator) sum(i int) *tensor.Tensor {
	if co.acc[i] == nil {
		co.acc[i] = tensor.New(co.params[i].Shape...)
	}
	return co.acc[i]
}

// fold takes every done token from the cursor upward into the
// iteration's sum and releases its report. It performs Sequential's
// arithmetic — acc += frac·g, one token at a time in seq order — so the
// sum is bit-identical whatever order the reports arrive in; a report
// ahead of a gap stays parked until a later call closes it. A dense
// report goes through Sequential's own AddScaled. A top-k report adds
// frac·v at its kept indices only: its other entries are +0, and acc,
// cleared to +0 and only added to, never holds −0 or a signalling NaN,
// so adding frac·(+0) would change no bit of it
// (TopKSection.AddScaledTo). A rank-1 section is not added here: its x
// and δ are copied onto the section's run, and the barrier adds the run
// (step) with AddOuterScaled's bits, forming each product as the
// worker's MatMulATInto would have and skipping the rows where x is
// zero by the same argument. A dense or top-k add to a
// section first adds its pending run, so the section's terms still go
// in seq order. The event loop thus spends a copy of in+out floats on a
// rank-1 section, not a pass over its in·out: a pull request queued
// behind a report is answered at once.
func (co *Coordinator) fold() {
	for ; co.folded < len(co.tokens) && co.tokens[co.folded].done; co.folded++ {
		tok := co.tokens[co.folded]
		for i, s := range tok.report.TopK() {
			co.flush(i)
			s.AddScaledTo(co.sum(i).Data, co.frac)
		}
		rank1 := tok.report.Rank1()
		for i, g := range tok.report.Grads {
			if rank1 != nil && len(rank1[i].X) > 0 {
				co.runs[i].add(rank1[i], len(co.tokens))
				continue
			}
			co.flush(i)
			acc := co.sum(i)
			view := tensor.Tensor{Shape: acc.Shape, Data: g}
			acc.AddScaled(&view, co.frac)
		}
		tok.report.Release()
		tok.report = nil
	}
}

// factorRun is a section's pending rank-1 terms, in seq order: views of
// arena, which holds each term's x and δ back to back and is allocated
// at a run's first term, for an iteration's worth of them, and reused
// from then on.
type factorRun struct {
	xs, ds [][]float32
	arena  []float32
}

// add copies f onto the run; nTok bounds the terms of an iteration.
func (r *factorRun) add(f transport.Rank1Section, nTok int) {
	m, n := len(f.X), len(f.D)
	if len(r.xs) == 0 && len(r.arena) < nTok*(m+n) {
		r.arena = make([]float32, nTok*(m+n))
	}
	off := len(r.xs) * (m + n)
	x, d := r.arena[off:off+m], r.arena[off+m:off+m+n]
	copy(x, f.X)
	copy(d, f.D)
	r.xs, r.ds = append(r.xs, x), append(r.ds, d)
}

func (r *factorRun) reset() { r.xs, r.ds = r.xs[:0], r.ds[:0] }

// flush adds section i's pending run into acc, serially: only a session
// that mixes rank-1 reports with dense or top-k ones has a run to add
// before the barrier.
func (co *Coordinator) flush(i int) {
	if r := &co.runs[i]; len(r.xs) > 0 {
		tensor.AddOutersScaled(co.sum(i).Data, 0, r.xs, r.ds, co.frac)
		r.reset()
	}
}

// foldTileFloats is how much of a section the barrier folds at a time:
// 16 KiB of the sum, which stays in a core's L1 with its parameters and
// velocity while the run's terms go in and the step is taken.
const foldTileFloats = 4096

// step is the barrier's optimizer step, and it leaves acc cleared for
// the next iteration. A section with a pending run is folded over the
// kernel pool — every worker waits for the iter-start meanwhile — in
// bands of rows, each band a tile of about foldTileFloats at a time: the
// tile starts at +0, takes the run's terms in seq order
// (tensor.AddOutersScaled), then its step (stepRange), then is cleared,
// while it is still in cache. Every element sees the same operations in
// the same order as in a fold of the whole section followed by
// applyUpdate, so the bits are the same. The tile is a stretch of the
// section's sum if it has one; a section every term of which has come
// as factors has none, and its tile is the band's own, on the band's
// stack, so its gradient never exists whole (rows wider than that tile
// take a sum). Any other section takes applyUpdate's step and is
// cleared.
func (co *Coordinator) step() {
	for i, p := range co.params {
		v, r := velOf(co.vel, i), &co.runs[i]
		if len(r.xs) == 0 {
			g := co.acc[i].Data
			stepRange(p.Data, v, g, co.cfg)
			clear(g)
			continue
		}
		n := len(r.ds[0])
		rows := p.Len() / n
		tile := max(1, foldTileFloats/n)
		var g []float32
		if co.acc[i] != nil || n > foldTileFloats {
			g = co.sum(i).Data
		}
		tensor.ParallelRows(rows, int64(len(r.xs))*int64(p.Len()), func(lo, hi int) {
			var own [foldTileFloats]float32
			for r0 := lo; r0 < hi; r0 += tile {
				r1 := min(r0+tile, hi)
				var c []float32
				if g != nil {
					c = g[r0*n : r1*n]
				} else {
					c = own[:(r1-r0)*n]
				}
				vb := v
				if v != nil {
					vb = v[r0*n : r1*n]
				}
				tensor.AddOutersScaled(c, r0, r.xs, r.ds, co.frac)
				stepRange(p.Data[r0*n:r1*n], vb, c, co.cfg)
				clear(c)
			}
		})
		r.reset()
	}
}

// checkReport holds a report to the protocol: it must be for a token its
// sender holds (which also rules out repeats and other workers' tokens),
// under the negotiated codec or exact — codec-blind transports degrade to
// exact losslessly — and in the model's shapes. A rank-1 section is only
// a one-row token's, and its factors must be the rows and columns of a
// 2-D gradient. Shapes are checked on arrival because the report may be
// folded only after later ones.
func (co *Coordinator) checkReport(ws *workerState, m *transport.Message) error {
	seq := m.Token.Seq
	if _, held := ws.outstanding[seq]; !held {
		return fmt.Errorf("%w: worker %d reported token seq %d, which it does not hold", errProtocol, ws.wid, seq)
	}
	if rc := m.GradCodec(); rc != transport.CompressExact && rc != ws.codec {
		return fmt.Errorf("%w: worker %d reported with codec %v, negotiated %v", errProtocol, ws.wid, rc, ws.codec)
	}
	if n := m.NumGrads(); n != len(co.params) {
		return fmt.Errorf("%w: worker %d reported %d gradient tensors for token seq %d, want %d", errProtocol, ws.wid, n, seq, len(co.params))
	}
	for i, p := range co.params {
		if n := m.GradLen(i); n != p.Len() {
			return fmt.Errorf("%w: worker %d reported gradient %d with %d elements, want %d", errProtocol, ws.wid, i, n, p.Len())
		}
	}
	rank1 := m.Rank1()
	if rank1 == nil {
		return nil
	}
	if info := co.tokens[seq].info; info.Hi-info.Lo != 1 {
		return fmt.Errorf("%w: worker %d reported rank-1 factors for token seq %d of %d rows", errProtocol, ws.wid, seq, info.Hi-info.Lo)
	}
	for i, f := range rank1 {
		if p := co.params[i]; len(f.X) > 0 && (p.Dims() != 2 || len(f.X) != p.Shape[0] || len(f.D) != p.Shape[1]) {
			return fmt.Errorf("%w: worker %d reported gradient %d as factors of %d and %d floats, want shape %v", errProtocol, ws.wid, i, len(f.X), len(f.D), p.Shape)
		}
	}
	return nil
}

// strayEvent handles traffic from connections that are not (yet)
// workers: join requests and the deaths of would-be joiners.
func (co *Coordinator) strayEvent(ev event) {
	if ev.err != nil {
		if !co.rejected[ev.conn] {
			co.dropPendingJoin(ev.conn, "join", ev.err)
		}
		return
	}
	if co.elastic() && ev.msg.Kind == transport.KindJoin {
		for _, c := range co.pendingJoins {
			if c == ev.conn {
				return // duplicate join request
			}
		}
		co.pendingJoins = append(co.pendingJoins, ev.conn)
		co.pendingJoinReq[ev.conn] = ev.msg.GradCodec()
		return
	}
	// Anything else from a non-worker connection is a protocol
	// violation: shoot just that connection.
	if !co.rejected[ev.conn] {
		co.rejected[ev.conn] = true
		ev.conn.Close()
		co.recordFault(-1, "join", "protocol", fmt.Sprintf("non-worker connection sent %v", ev.msg.Kind))
	}
}

// dropPendingJoin forgets a would-be joiner whose connection died before
// admission.
func (co *Coordinator) dropPendingJoin(c transport.Conn, phase string, cause error) {
	for i, pc := range co.pendingJoins {
		if pc == c {
			co.pendingJoins = append(co.pendingJoins[:i], co.pendingJoins[i+1:]...)
			delete(co.pendingJoinReq, c)
			co.recordFault(-1, phase, transport.Classify(cause).String(), cause.Error())
			return
		}
	}
}

// announceDrain starts a graceful leave: the worker stops receiving
// tokens immediately and its outstanding tokens flow back through the
// same return path as a dead worker's; the departure itself completes at
// the next iteration barrier.
func (co *Coordinator) announceDrain(ws *workerState) {
	if ws.draining {
		return
	}
	ws.draining = true
	co.recordFlight("drain", ws.wid, "", "")
	co.reclaimTokens(ws)
	co.pendingLeaves = append(co.pendingLeaves, ws)
}

// applyMembership runs the iteration-barrier membership protocol: the
// policy sees the completed iteration's live timing signal and decides
// which pending joins, drains and evictions to apply. Joins are applied
// before leaves and evictions, so a join+leave in one barrier window
// never dips the live count below its resting value.
func (co *Coordinator) applyMembership(iterTime time.Duration) {
	if !co.elastic() {
		return
	}
	pendingLeaves := make([]int, 0, len(co.pendingLeaves))
	for _, ws := range co.pendingLeaves {
		pendingLeaves = append(pendingLeaves, ws.wid)
	}
	sort.Ints(pendingLeaves)
	dec := co.cfg.Elastic.AtBarrier(BarrierInfo{
		Iter:           co.it,
		Live:           co.trainableIDs(),
		PendingJoins:   len(co.pendingJoins),
		PendingLeaves:  pendingLeaves,
		IterTime:       iterTime,
		TokensByWorker: co.iterTokens,
	})
	effect := co.it + 1

	admit := dec.AdmitJoins
	if admit > len(co.pendingJoins) {
		admit = len(co.pendingJoins)
	}
	for i := 0; i < admit; i++ {
		conn := co.pendingJoins[0]
		co.pendingJoins = co.pendingJoins[1:]
		wid := len(co.workers)
		ws := &workerState{wid: wid, conn: conn, alive: true, outstanding: map[int]struct{}{}}
		ws.codec = co.negotiate(wid, co.pendingJoinReq[conn])
		ws.tokens = co.tokenCounter(wid)
		delete(co.pendingJoinReq, conn)
		co.workers = append(co.workers, ws)
		co.byConn[conn] = ws
		co.res.TokensByWorker = append(co.res.TokensByWorker, 0)
		// The admission ack carries the assigned wid and the negotiated
		// gradient codec; the next iter-start broadcast delivers the
		// current model snapshot before the joiner's first pull.
		ack := &transport.Message{Kind: transport.KindJoin, WID: wid, Iter: effect}
		ack.SetGradCodec(ws.codec)
		if err := conn.Send(ack); err != nil {
			co.markDead(ws, "join", err)
			continue
		}
		co.recordScale(metrics.ScaleJoin, wid, effect)
	}

	for _, wid := range dec.CompleteLeaves {
		ws := co.takePendingLeave(wid)
		if ws == nil {
			continue
		}
		if ws.alive {
			_ = ws.conn.Send(&transport.Message{Kind: transport.KindDrainAck, WID: wid, Iter: effect})
			ws.alive = false
			ws.departed = true
			ws.conn.Close()
		}
		co.recordScale(metrics.ScaleLeave, wid, effect)
	}

	for _, wid := range dec.Evict {
		if wid < 0 || wid >= len(co.workers) {
			continue
		}
		ws := co.workers[wid]
		if !ws.alive || ws.draining {
			continue
		}
		_ = ws.conn.Send(&transport.Message{Kind: transport.KindShutdown})
		ws.alive = false
		ws.departed = true
		ws.conn.Close()
		co.recordScale(metrics.ScaleEvict, wid, effect)
	}

	// Migration requests: the worker answers with a leave, so the
	// actual departure arrives through the drain path and completes at
	// a later barrier. A send failure here is an ordinary death.
	for _, wid := range dec.Reassign {
		if wid < 0 || wid >= len(co.workers) {
			continue
		}
		ws := co.workers[wid]
		if !ws.alive || ws.draining {
			continue
		}
		if err := ws.conn.Send(&transport.Message{Kind: transport.KindReassign, WID: wid, Iter: effect}); err != nil {
			co.markDead(ws, "reassign", err)
			continue
		}
		co.recordScale(metrics.ScaleReassign, wid, effect)
	}
}

// takePendingLeave removes and returns the pending drain for wid, nil if
// there is none.
func (co *Coordinator) takePendingLeave(wid int) *workerState {
	for i, ws := range co.pendingLeaves {
		if ws.wid == wid {
			co.pendingLeaves = append(co.pendingLeaves[:i], co.pendingLeaves[i+1:]...)
			return ws
		}
	}
	return nil
}

// ownership chooses each token's owner for the coming iteration, nil if
// no worker can train.
func (co *Coordinator) ownership(nTok int) []int {
	if !co.elastic() {
		out := make([]int, nTok)
		for seq := range out {
			out[seq] = seq % co.cfg.Workers
		}
		return out
	}
	live := co.trainableIDs()
	if len(live) == 0 {
		return nil
	}
	if d := co.cfg.Elastic.Distribution(nTok, live); validDistribution(d, nTok, live) {
		return d
	}
	out := make([]int, nTok)
	for seq := range out {
		out[seq] = live[seq%len(live)]
	}
	return out
}

// validDistribution checks a policy-provided ownership vector: right
// length, every owner live.
func validDistribution(d []int, nTok int, live []int) bool {
	if len(d) != nTok {
		return false
	}
	ok := map[int]bool{}
	for _, wid := range live {
		ok[wid] = true
	}
	for _, o := range d {
		if !ok[o] {
			return false
		}
	}
	return true
}

// sendAssign reserves the token for the worker and ships it, marked
// SetMore when more of its batch follows. The assign carries a fresh
// child span of the iteration span; the worker's compute span continues
// the same trace on the other side of the wire.
func (co *Coordinator) sendAssign(ws *workerState, tok *tokenState, more bool) error {
	tok.assigned = true
	tok.span = co.cfg.Spans.StartChild("token-roundtrip", ws.wid, co.iterSpan.Context())
	ws.outstanding[tok.info.Seq] = struct{}{}
	co.recordFlight("token.assign", ws.wid, tok.span.Context().TraceHex(),
		"seq="+strconv.Itoa(tok.info.Seq))
	// Every assign restates the negotiated codec, so a worker that
	// registered through a codec-blind transport (which drops the
	// negotiation field) still learns the verdict before its first
	// report.
	am := &transport.Message{
		Kind: transport.KindAssign, Iter: co.it, Token: tok.info, Span: tok.span.Context(),
	}
	am.SetGradCodec(ws.codec)
	am.SetMore(more)
	return ws.conn.Send(am)
}

// unassign reverts an assignment whose send never reached the worker:
// the token returns to the pool as if never handed out (no Reassigned
// count — nothing was lost in flight).
func (co *Coordinator) unassign(ws *workerState, tok *tokenState) {
	tok.assigned = false
	tok.span = nil // never recorded: the assignment never happened
	delete(ws.outstanding, tok.info.Seq)
}

// reclaimTokens returns a worker's unreported tokens to the pool — the
// shared return path for deaths, hangs and graceful drains.
func (co *Coordinator) reclaimTokens(ws *workerState) {
	for seq := range ws.outstanding {
		co.reclaim(ws, seq)
	}
}

// reclaim takes token seq back from a worker that may hold it and, unless
// it is already reported, returns it to the pool as reassigned.
func (co *Coordinator) reclaim(ws *workerState, seq int) {
	if co.tokens != nil && !co.tokens[seq].done {
		co.recordFlight("token.return", ws.wid, co.tokens[seq].span.Context().TraceHex(),
			"seq="+strconv.Itoa(seq))
		co.tokens[seq].assigned = false
		co.tokens[seq].span = nil // round trip never completed
		co.res.Reassigned++
		co.tele.reassigned.Inc()
	}
	delete(ws.outstanding, seq)
}

// markDead declares the worker lost: its connection is closed, its
// unreported tokens return to the pool, and the fault is recorded.
func (co *Coordinator) markDead(ws *workerState, phase string, cause error) {
	if !ws.alive {
		return
	}
	ws.alive = false
	ws.conn.Close()
	co.reclaimTokens(ws)
	class := transport.Classify(cause)
	name := class.String()
	if errors.Is(cause, errWorkerHung) {
		name = transport.ClassTimeout.String()
	}
	if errors.Is(cause, errProtocol) {
		name = "protocol"
	}
	co.recordFault(ws.wid, phase, name, cause.Error())
}

// serveWaiting re-serves parked pull requests after tokens return to
// the pool, in arrival order. A send failure kills that worker and may
// free more tokens, so it loops until a full pass makes no progress.
func (co *Coordinator) serveWaiting() {
	for {
		progress := false
		pend := co.waiting
		co.waiting = nil
		for _, ws := range pend {
			if !ws.alive || ws.draining {
				continue
			}
			parked, _ := co.serve(ws)
			progress = progress || !parked
		}
		if !progress {
			return
		}
	}
}

// queueBudget is how much of its own shard a worker may hold
// unreported, in time at its measured token rate (see depth).
const queueBudget = time.Millisecond

// depth is how many unreported tokens worker wid may hold: queueBudget's
// worth at its EWMA token rate, and at least two — the token it trains
// and the next one riding ahead. A worker without a rate (its first
// iteration, a fresh joiner) gets two, and so does any worker whose
// tokens take queueBudget or longer.
func (co *Coordinator) depth(wid int) int {
	return max(2, int(co.rates[wid]*queueBudget.Seconds()))
}

// serve answers a pull request from ws. A worker that holds more than
// half its depth is still busy with its window and gets nothing: its
// request is answered by the tokens it already holds. Otherwise it is
// topped up to depth by selectBatch's batch, sent in one write. A worker
// holding no token when nothing is assignable is parked, so a token freed
// by a later death can be re-served (otherwise the worker waits for the
// next iter-start and re-requests itself). failed reports a batch that
// could not be sent (see assign); the caller then re-serves parked
// requests.
func (co *Coordinator) serve(ws *workerState) (parked, failed bool) {
	held, depth := len(ws.outstanding), co.depth(ws.wid)
	if held > depth/2 {
		return false, false
	}
	co.batch = selectBatch(co.tokens, ws.wid, held, depth, co.backlog, co.batch)
	if len(co.batch) == 0 {
		if held == 0 {
			co.waiting = append(co.waiting, ws)
			return true, false
		}
		return false, false
	}
	ok := co.assign(ws, co.batch)
	clear(co.batch)
	return false, !ok
}

// assign ships batch to ws, every assign but the last marked SetMore so
// the batch leaves in one write, and reports whether it went out. A
// failed send fails the whole batch, and no token of it stays assigned:
// the assigns before the failed one may be held frames that went down
// with the failed write, or may have reached the worker already. A
// failure kills the worker, which returns the batch to the pool, except
// under elasticity: the conn may have closed because a leave is in
// flight, so the earlier assigns are reclaimed as a leaver's would be,
// the failed one is reverted, and the recv pump delivers the real
// verdict (leave or death) in message order.
func (co *Coordinator) assign(ws *workerState, batch []*tokenState) bool {
	if len(ws.outstanding) == 0 {
		ws.progress = time.Now()
	}
	var err error
	sent := 0
	for sent < len(batch) && err == nil {
		err = co.sendAssign(ws, batch[sent], sent < len(batch)-1)
		sent++
	}
	if err == nil {
		return true
	}
	if co.elastic() {
		for _, tok := range batch[:sent-1] {
			co.reclaim(ws, tok.info.Seq)
		}
		co.unassign(ws, batch[sent-1])
	} else {
		co.markDead(ws, "iteration", err)
	}
	return false
}

// trainableCount reports how many workers can still train tokens (alive
// and not draining).
func (co *Coordinator) trainableCount() int {
	n := 0
	for _, ws := range co.workers {
		if ws.alive && !ws.draining {
			n++
		}
	}
	return n
}

// trainableIDs lists the trainable worker ids, ascending.
func (co *Coordinator) trainableIDs() []int {
	var out []int
	for _, ws := range co.workers {
		if ws.alive && !ws.draining {
			out = append(out, ws.wid)
		}
	}
	return out
}

// recordFault appends a fault event to the result and the optional
// trace.
func (co *Coordinator) recordFault(wid int, phase, class, detail string) {
	at := time.Since(co.start).Seconds()
	co.res.Faults = append(co.res.Faults, metrics.FaultEvent{
		Time: at, Worker: wid, Iter: co.it, Phase: phase, Class: class, Detail: detail,
	})
	co.cfg.Metrics.Counter(MetricFaultsTotal, "class", class).Inc()
	co.cfg.Trace.AddPoint(trace.Fault, wid, at, class+" during "+phase)
	co.recordFlight("death", wid, co.iterSpan.Context().TraceHex(), class+" during "+phase+": "+detail)
}

// recordScale appends a membership change to the result and the
// optional trace. effectIter is the first iteration run under the new
// membership.
func (co *Coordinator) recordScale(kind string, wid, effectIter int) {
	at := time.Since(co.start).Seconds()
	co.res.Scales = append(co.res.Scales, metrics.ScaleEvent{
		Time: at, Iter: effectIter, Worker: wid, Kind: kind,
	})
	co.cfg.Metrics.Counter(MetricScaleTotal, "kind", kind).Inc()
	tk := trace.Join
	if kind != metrics.ScaleJoin {
		tk = trace.Leave
	}
	co.cfg.Trace.AddPoint(tk, wid, at, kind)
	co.recordFlight("scale."+kind, wid, "", "effect_iter="+strconv.Itoa(effectIter))
}

// selectBatch chooses the tokens to assign to worker wid, which holds
// held unreported tokens and may hold depth. A worker holding none gets
// one token in hand: its own shard's lowest unassigned seq, or else a
// steal, the lowest unassigned seq of the owner with the largest backlog
// (ties go to the lower wid). Behind that, or behind what it holds, its
// own shard's next seqs are queued up to depth, but never the shard's
// last unassigned token, which stays stealable; steals stay one at a
// time. One pass over the tokens counts each owner's backlog into
// backlog, indexed by wid, and collects the own tokens into batch; a
// steal scans once more for its token. Both are scratch space the caller
// keeps, so selection allocates nothing; the batch is returned.
func selectBatch(tokens []*tokenState, wid, held, depth int, backlog []int, batch []*tokenState) []*tokenState {
	clear(backlog)
	batch = batch[:0]
	for _, t := range tokens {
		if t.assigned || t.done {
			continue
		}
		backlog[t.info.Owner]++
		if t.info.Owner == wid && len(batch) < depth-held {
			batch = append(batch, t)
		}
	}
	own := backlog[wid]
	if own > 0 {
		k := min(len(batch), own-1)
		if held == 0 {
			k = max(k, 1)
		}
		return batch[:k]
	}
	if held > 0 {
		return batch
	}
	best := -1
	for owner, n := range backlog {
		if n > 0 && (best == -1 || n > backlog[best]) {
			best = owner
		}
	}
	if best == -1 {
		return batch
	}
	for _, t := range tokens {
		if t.info.Owner == best && !t.assigned && !t.done {
			return append(batch, t)
		}
	}
	return batch
}

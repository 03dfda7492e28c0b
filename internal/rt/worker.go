package rt

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// Worker-side metric names (coordinator-side names live in telemetry.go).
const (
	// MetricWorkerComputeSeconds is one token's forward+backward time —
	// the paper's t_comp measured at the worker.
	MetricWorkerComputeSeconds = "fela_worker_compute_seconds"
	// MetricWorkerFetchSeconds is the parameter-install time at iteration
	// start — the worker-side slice of t_comm.
	MetricWorkerFetchSeconds = "fela_worker_fetch_seconds"
	// MetricWorkerTokensTotal counts tokens computed and reported.
	MetricWorkerTokensTotal = "fela_worker_tokens_total"
	// MetricWorkerKernelUtilization is the fraction of the parallel
	// compute kernels' wall time × fan-out actually spent inside band
	// loops since the last token (1.0 = every kernel worker busy the
	// whole time; low values mean bands are too small or the machine is
	// oversubscribed). Serial-only windows leave the gauge unchanged.
	MetricWorkerKernelUtilization = "fela_worker_kernel_utilization"
)

// Worker is the real-time training worker (§III-A worker logic): it
// registers, then loops — receive parameters at iteration start, sleep
// any injected straggler delay, pull tokens, train them for real, report
// gradients, and pull again.
type Worker struct {
	wid int
	net *minidnn.Network
	ds  *minidnn.Dataset
	cfg Config
	// params are net's parameter tensors, which iter-starts overwrite.
	params []*tensor.Tensor

	// Hot-path instruments, nil (no-op) when cfg.Metrics is nil.
	compute    *obs.Histogram
	fetch      *obs.Histogram
	tokens     *obs.Counter
	kernelUtil *obs.Gauge
	// kernelBase is the last-seen snapshot of the process-wide kernel
	// counters, the delta basis for the utilization gauge.
	kernelBase tensor.KernelStats

	// codec is the negotiated gradient codec reports are stamped with:
	// requested as cfg.Compress at registration, adopted from the
	// coordinator's verdict on the join ack and every assign.
	codec transport.Compression

	// Live snapshot state, owned by the protocol-loop goroutine and
	// published atomically for the /statusz handler.
	start       time.Time
	iter        int
	trained     int
	lastCompute float64
	lastFetch   float64
	status      atomic.Pointer[WorkerStatus]
}

// NewWorker builds a worker around its own network replica and dataset.
// The replica's initial parameters are irrelevant: the coordinator
// broadcasts authoritative parameters every iteration.
func NewWorker(wid int, net *minidnn.Network, ds *minidnn.Dataset, cfg Config) *Worker {
	w := &Worker{wid: wid, net: net, ds: ds, cfg: cfg, params: net.Params(), start: time.Now(), iter: -1}
	reg := cfg.Metrics
	reg.Help(MetricWorkerComputeSeconds, "Forward+backward time per token in seconds.")
	reg.Help(MetricWorkerFetchSeconds, "Parameter install time per iteration in seconds.")
	reg.Help(MetricWorkerTokensTotal, "Tokens computed and reported by this worker.")
	reg.Help(MetricWorkerKernelUtilization, "Busy fraction of the parallel compute kernels over the last token (busy / (wall × fan-out)).")
	wl := strconv.Itoa(wid)
	w.compute = reg.Histogram(MetricWorkerComputeSeconds, nil, "worker", wl)
	w.fetch = reg.Histogram(MetricWorkerFetchSeconds, nil, "worker", wl)
	w.tokens = reg.Counter(MetricWorkerTokensTotal, "worker", wl)
	w.kernelUtil = reg.Gauge(MetricWorkerKernelUtilization, "worker", wl)
	w.kernelBase = tensor.ReadKernelStats()
	return w
}

// observeKernels publishes the kernel-utilization gauge from the delta
// of the process-wide kernel counters since the last observation. The
// counters are process-global, so with several in-process workers the
// gauge reflects the shared pool — which is exactly what utilization
// means on one machine.
func (w *Worker) observeKernels() {
	now := tensor.ReadKernelStats()
	busy := now.BusyNanos - w.kernelBase.BusyNanos
	wall := now.WallNanos - w.kernelBase.WallNanos
	w.kernelBase = now
	if wall == 0 {
		return // no parallel kernel ran in this window
	}
	util := float64(busy) / (float64(wall) * float64(tensor.Parallelism()))
	if util > 1 {
		util = 1
	}
	w.kernelUtil.Set(util)
}

// Status returns the most recently published worker snapshot, nil before
// the first protocol event or on a nil worker. Safe to call from any
// goroutine (the felaworker /statusz feed).
func (w *Worker) Status() *WorkerStatus {
	if w == nil {
		return nil
	}
	return w.status.Load()
}

// StatusAny adapts Status to the obs.Handler statusFn signature without
// handing out a typed nil.
func (w *Worker) StatusAny() any {
	if st := w.Status(); st != nil {
		return st
	}
	return nil
}

func (w *Worker) publishStatus(draining bool) {
	w.status.Store(&WorkerStatus{
		Role: "worker", WID: w.wid, Iter: w.iter,
		TokensTrained:      w.trained,
		LastComputeSeconds: w.lastCompute,
		LastFetchSeconds:   w.lastFetch,
		Draining:           draining,
		UptimeSeconds:      time.Since(w.start).Seconds(),
	})
}

// Run speaks the protocol over conn until shutdown.
func (w *Worker) Run(conn transport.Conn) error {
	conn = transport.Instrument(conn, w.cfg.Metrics)
	// The registration rides the requested gradient codec; the
	// coordinator answers with its verdict on every assign.
	reg := &transport.Message{Kind: transport.KindRegister, WID: w.wid}
	reg.SetGradCodec(w.cfg.Compress)
	if err := conn.Send(reg); err != nil {
		return fmt.Errorf("rt: worker %d register: %w", w.wid, err)
	}
	w.publishStatus(false)
	return w.loop(conn)
}

// Serve runs the protocol loop for a worker whose admission was already
// negotiated out of band: a multi-tenant pool (internal/jobs) leases
// the connection to a job and delivers the registration or join
// handshake itself, then hands the worker a conn that starts at the
// first iter-start. It returns nil on a clean departure (drain ack or
// shutdown), like Run.
func (w *Worker) Serve(conn transport.Conn) error {
	conn = transport.Instrument(conn, w.cfg.Metrics)
	w.publishStatus(false)
	return w.loop(conn)
}

// Join enters an in-progress elastic session: it sends a join request,
// blocks until the coordinator admits it at an iteration barrier (the
// ack carries the assigned worker id), then runs the normal protocol
// loop. The first iter-start after admission delivers the current model
// snapshot, so a joiner never pulls a token against stale parameters.
// It returns the assigned worker id, or -1 if the session ended before
// a barrier admitted this worker (not an error).
func Join(conn transport.Conn, net *minidnn.Network, ds *minidnn.Dataset, cfg Config) (int, error) {
	conn = transport.Instrument(conn, cfg.Metrics)
	req := &transport.Message{Kind: transport.KindJoin}
	req.SetGradCodec(cfg.Compress)
	if err := conn.Send(req); err != nil {
		return -1, fmt.Errorf("rt: join request: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return -1, fmt.Errorf("rt: awaiting admission: %w", err)
	}
	switch m.Kind {
	case transport.KindJoin:
		// Admitted; m.WID is ours, m.Iter is our first iteration.
	case transport.KindShutdown:
		return -1, nil
	default:
		return -1, fmt.Errorf("rt: expected join ack, got %v", m.Kind)
	}
	w := NewWorker(m.WID, net, ds, cfg)
	w.codec = m.GradCodec() // the ack carries the negotiated codec
	w.publishStatus(false)
	return m.WID, w.loop(conn)
}

// loop is the post-registration protocol loop shared by registered and
// joined workers.
func (w *Worker) loop(conn transport.Conn) error {
	// Iter-starts land in the replica's own tensors while this loop runs;
	// after it, a pool worker's conn may serve a job of another model.
	dest := make([][]float32, len(w.params))
	for i, p := range w.params {
		dest[i] = p.Data
	}
	transport.SetParamsDest(conn, dest)
	defer transport.SetParamsDest(conn, nil)
	draining := false
	for {
		m, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("rt: worker %d recv: %w", w.wid, err)
		}
		switch m.Kind {
		case transport.KindIterStart:
			if draining {
				m.Release()
				continue // parameters are irrelevant while awaiting the ack
			}
			w.iter = m.Iter
			sp := w.cfg.Spans.StartChild("install-params", w.wid, m.Span)
			fetchStart := time.Now()
			err := w.setParams(m.Params)
			m.Release() // parameters are installed; recycle any codec buffers
			if err != nil {
				return err
			}
			w.lastFetch = time.Since(fetchStart).Seconds()
			sp.End()
			w.fetch.Observe(w.lastFetch)
			if w.cfg.Drain != nil && w.cfg.Drain(m.Iter, w.wid) {
				// Announce a graceful leave instead of pulling tokens,
				// then wait for the barrier's drain ack (or shutdown).
				if err := conn.Send(&transport.Message{Kind: transport.KindLeave, WID: w.wid}); err != nil {
					return fmt.Errorf("rt: worker %d leave: %w", w.wid, err)
				}
				draining = true
				w.publishStatus(true)
				continue
			}
			w.publishStatus(false)
			if w.cfg.Delay != nil {
				if d := w.cfg.Delay(m.Iter, w.wid); d > 0 {
					time.Sleep(d)
				}
			}
			// Best-effort: if the session ended while this worker slept,
			// the send fails but a shutdown message is already queued for
			// the next Recv.
			_ = conn.Send(&transport.Message{Kind: transport.KindRequest, WID: w.wid})
		case transport.KindAssign:
			if draining {
				continue // an assign that raced the leave; it was reclaimed
			}
			w.codec = m.GradCodec() // the assign restates the negotiated codec
			// Continue the coordinator's token-roundtrip trace: the compute
			// span is a child of the span context that rode in the assign.
			sp := w.cfg.Spans.StartChild("compute", w.wid, m.Span)
			computeStart := time.Now()
			if w.cfg.TokenDelay != nil {
				if d := w.cfg.TokenDelay(m.Iter, w.wid); d > 0 {
					time.Sleep(d)
				}
			}
			report, err := w.train(m.Token)
			w.lastCompute = time.Since(computeStart).Seconds()
			sp.End()
			if err != nil {
				return err
			}
			w.compute.Observe(w.lastCompute)
			w.observeKernels()
			report.Span = m.Span // tie the report to the same trace
			report.SetMore(true)
			if err := conn.Send(report); err != nil {
				return err
			}
			w.trained++
			w.tokens.Inc()
			w.publishStatus(false)
			// Report and request are combined (§III-D): the request for
			// the next token leaves in the same write as the report held
			// above, so a failed write lost the report too. After a token
			// shorter than queueBudget the request is held as well, until
			// this conn's Recv would block: a worker going through a window
			// of queued assigns sends its reports when the window runs
			// dry, in one write. A slow token's report leaves at once.
			req := &transport.Message{Kind: transport.KindRequest, WID: w.wid}
			req.SetMore(w.lastCompute < queueBudget.Seconds())
			if err := conn.Send(req); err != nil {
				return err
			}
		case transport.KindReassign:
			// Asked to migrate to another job: answer with a normal
			// leave and drain out — the same path as a scripted drain,
			// so migration adds no new worker-side states. Duplicate
			// requests while already draining are idempotent.
			if draining {
				continue
			}
			if err := conn.Send(&transport.Message{Kind: transport.KindLeave, WID: w.wid}); err != nil {
				return fmt.Errorf("rt: worker %d leave: %w", w.wid, err)
			}
			draining = true
			w.publishStatus(true)
		case transport.KindDrainAck:
			return nil
		case transport.KindShutdown:
			return nil
		default:
			return fmt.Errorf("rt: worker %d unexpected message %v", w.wid, m.Kind)
		}
	}
}

// setParams installs a parameter broadcast. A frame that landed in the
// replica (transport.SetParamsDest) carries the network's own tensors,
// and nothing is copied; one from a conn that takes no destination is
// copied in from the codec's buffers, which the caller releases. A
// broadcast not in the model's shapes is a protocol violation.
func (w *Worker) setParams(flat [][]float32) error {
	if landed(w.params, flat) {
		return nil
	}
	if err := InstallFlat(w.params, flat); err != nil {
		return fmt.Errorf("%w: worker %d iter-start: %w", errProtocol, w.wid, err)
	}
	return nil
}

// landed reports whether flat is the tensors' own data, section for
// section.
func landed(ts []*tensor.Tensor, flat [][]float32) bool {
	if len(ts) != len(flat) {
		return false
	}
	for i, t := range ts {
		if len(flat[i]) != t.Len() || len(flat[i]) > 0 && &flat[i][0] != &t.Data[0] {
			return false
		}
	}
	return true
}

func (w *Worker) train(tok transport.TokenInfo) (*transport.Message, error) {
	if tok.Lo < 0 || tok.Hi > w.ds.Len() || tok.Lo >= tok.Hi {
		return nil, fmt.Errorf("rt: worker %d token range [%d,%d)", w.wid, tok.Lo, tok.Hi)
	}
	x, labels := w.ds.Batch(tok.Lo, tok.Hi)
	w.net.ZeroGrads()
	loss := w.net.Loss(x, labels)
	m := &transport.Message{Kind: transport.KindReport, WID: w.wid, Token: tok, Loss: loss}
	m.SetGradCodec(w.codec)
	// The report carries views of the network's gradient buffers, not a
	// copy: Conn.Send captures the payload before it returns, and the
	// next ZeroGrads comes after that. A dense weight gradient the
	// network still holds as x⊗δ (after a one-row pass) goes as its two
	// factors under the exact codec, in+out floats for in·out, and the
	// coordinator folds their outer product with the same bits; a lossy
	// codec compresses the formed gradient.
	if w.codec != transport.CompressExact {
		grads := w.net.Grads()
		m.Grads = make([][]float32, len(grads))
		for i, g := range grads {
			m.Grads[i] = g.Data
		}
		return m, nil
	}
	grads, factors := w.net.GradsOrFactors()
	m.Grads = make([][]float32, len(grads))
	var rank1 []transport.Rank1Section
	for i, g := range grads {
		if g != nil {
			m.Grads[i] = g.Data
			continue
		}
		if rank1 == nil {
			rank1 = make([]transport.Rank1Section, len(grads))
		}
		rank1[i] = transport.Rank1Section{X: factors[i].X, D: factors[i].D}
	}
	m.SetRank1(rank1)
	return m, nil
}

// Train runs a complete in-process session: a coordinator plus
// cfg.Workers goroutine workers over transport.Pair conns, which carry
// the same frames as TCP (negotiated gradient compression included),
// each worker holding a replica of the seed network and the dataset. It
// returns the coordinator's result. In-process workers never fail
// legitimately, so Train fails loud: any fault the result records — a
// straggler shot by WorkerTimeout, say — or any worker's error is
// returned as an error.
func Train(seedNet func() *minidnn.Network, ds *minidnn.Dataset, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	co, err := NewCoordinator(seedNet(), cfg)
	if err != nil {
		return nil, err
	}
	serverConns := make([]transport.Conn, cfg.Workers)
	errs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		w := NewWorker(wid, seedNet(), ds, cfg)
		go func() { errs <- w.Run(client) }()
	}
	// Closing the coordinator's ends on return ends their receive pumps.
	defer func() {
		for _, c := range serverConns {
			c.Close()
		}
	}()
	res, err := co.Run(serverConns)
	if err != nil {
		return nil, err
	}
	if len(res.Faults) > 0 {
		return nil, fmt.Errorf("rt: in-process session recorded %d fault(s), first: %v", len(res.Faults), res.Faults[0])
	}
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-errs; werr != nil {
			return nil, werr
		}
	}
	return res, nil
}

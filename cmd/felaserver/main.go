// Command felaserver runs the real-time Fela coordinator (Token Server +
// BSP synchronizer) on a TCP address and trains a real MLP on the
// deterministic synthetic dataset together with felaworker processes.
//
// Start the server, then launch -workers felaworker processes pointing
// at the printed address:
//
//	felaserver -addr 127.0.0.1:7070 -workers 4 -iters 20
//	felaworker -addr 127.0.0.1:7070 -wid 0   (… one per worker id)
//
// The server prints per-iteration loss, the token distribution across
// workers, and verifies the result bit-for-bit against the sequential
// reference.
//
// The session is fault tolerant: workers that crash, corrupt the wire or
// break the protocol are declared dead, their outstanding tokens are
// retrained by the survivors, the run completes on whoever is left, and
// a fault summary is printed at the end. -worker-timeout adds a hang
// deadline: a worker that sits on a token longer is declared dead too.
// The result stays bit-identical to the sequential reference regardless
// of which workers died.
//
// With -elastic, membership is live: the server keeps accepting
// connections for the whole session, so additional `felaworker -join`
// processes become workers at the next iteration barrier, workers may
// drain out gracefully (`felaworker -drain-after N`), and the online
// re-tuner reshapes the token distribution from live per-iteration
// timings after every scale event. -min-workers bounds eviction,
// -max-workers bounds admission. Elastic mode applies a 10 s
// -worker-timeout if none is set: a session that runs on as workers come
// and go should not wait forever on one that hangs.
//
// With -jobs, the server becomes a multi-tenant job manager instead of
// a single session: `felaworker -pool` processes register once into a
// shared elastic pool, clients submit training jobs over the same port,
// and the -alloc policy (fair-share, priority, throughput-max, oasis)
// decides how the pool is divided, migrating workers between jobs
// through their normal elastic drain/join machinery. Every completed
// job is verified bit-identical to the same job trained alone.
// -max-jobs makes the server exit after that many completions (demo/CI
// mode). -admission gates arrivals with an online admission policy
// (oasis rejects work the pool could only serve past its SLO).
//
// With -cluster-trace, the server replays a recorded JSONL arrival
// trace (see internal/workload) against its own pool on the trace's
// open-loop clock — -trace-scale speeds the clock up — prints a
// cluster summary (admitted/rejected, SLO attainment) when every
// submission has settled, then drains and exits.
//
// With -durable-dir, the server is crash-safe: every scheduling
// decision is appended to a write-ahead ledger under that directory
// before it is acknowledged, and model checkpoints are committed at
// iteration boundaries every -ckpt-every iterations. On boot the
// ledger is replayed and the latest checkpoints are loaded, so a
// killed server restarted on the same directory resumes where it
// died — bit-identical to a run that was never interrupted — while
// workers reconnect through their normal retry (-pool / -retries)
// loops. /healthz serves 503 "restoring" until replay and worker
// rejoin complete. -standby starts a warm standby instead: it tails
// the ledger while another felaserver holds the directory lock and
// takes over the moment the primary dies.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"fela/internal/durable"
	"fela/internal/elastic"
	"fela/internal/jobs"
	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
	"fela/internal/workload"
)

// defaultDrainTimeout bounds a signal-started drain when -drain-timeout
// is not positive.
const defaultDrainTimeout = 30 * time.Second

// sessionJobID is the checkpoint/ledger job id single-session mode
// files its state under (jobs mode ids are 1-based, so 0 is free).
const sessionJobID = 0

// serverOpts bundles every flag so tests can drive serve directly.
type serverOpts struct {
	addr          string
	workers       int
	iters         int
	workerTimeout time.Duration
	compress      string
	kernelPar     int
	drainTimeout  time.Duration

	elastic    bool
	minWorkers int
	maxWorkers int

	statusAddr string
	traceJSON  string

	jobs         bool
	alloc        string
	admission    string
	maxJobs      int
	clusterTrace string
	traceScale   float64

	durableDir string
	ckptEvery  int
	standby    bool
}

func main() {
	var o serverOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7070", "address to listen on")
	flag.IntVar(&o.workers, "workers", 4, "number of workers to wait for")
	flag.IntVar(&o.iters, "iters", 20, "iterations to train")
	flag.DurationVar(&o.workerTimeout, "worker-timeout", 0,
		"hang deadline: declare a worker dead after this long without progress on a token (0 = none; a crashed or misbehaving worker is declared dead either way)")
	flag.BoolVar(&o.elastic, "elastic", false,
		"live membership: accept felaworker -join connections for the whole session and re-tune on scale events")
	flag.IntVar(&o.minWorkers, "min-workers", 1, "elastic: never evict below this many live workers")
	flag.IntVar(&o.maxWorkers, "max-workers", 0, "elastic: admission cap for joiners (0 = unbounded)")
	flag.StringVar(&o.statusAddr, "status-addr", "",
		"serve live telemetry (/metrics, /statusz, /trace, /debug/pprof) on this address (empty = off)")
	flag.StringVar(&o.traceJSON, "trace-json", "",
		"write the session's spans as Chrome trace_event JSON to this file on exit (empty = off)")
	flag.BoolVar(&o.jobs, "jobs", false,
		"multi-tenant mode: run a job manager over a shared pool of felaworker -pool processes")
	flag.StringVar(&o.alloc, "alloc", "fair-share",
		"jobs: worker allocation policy (fair-share, priority, throughput-max, oasis)")
	flag.StringVar(&o.admission, "admission", "",
		"jobs: online admission policy gating arrivals (none, oasis; empty = admit everything)")
	flag.IntVar(&o.maxJobs, "max-jobs", 0,
		"jobs: shut down after this many jobs complete (0 = run until interrupted)")
	flag.StringVar(&o.clusterTrace, "cluster-trace", "",
		"jobs: replay this JSONL arrival trace against the pool, print a cluster summary, then drain")
	flag.Float64Var(&o.traceScale, "trace-scale", 1,
		"jobs: speed multiplier for -cluster-trace replay (2 = twice as fast)")
	flag.StringVar(&o.compress, "compress", "",
		"gradient compression to permit on the report path (exact, fp16, int8, topk; empty = exact). A worker requesting the same codec gets it; everyone else degrades to lossless. Lossy codecs skip the bit-identity verification and report the convergence delta instead")
	flag.IntVar(&o.kernelPar, "kernel-par", 0,
		"compute-kernel fan-out: goroutines per matmul/conv (0 = GOMAXPROCS, 1 = serial)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", defaultDrainTimeout,
		"on SIGINT/SIGTERM, how long to wait for in-flight work before exiting anyway")
	flag.StringVar(&o.durableDir, "durable-dir", "",
		"durability root: write-ahead decision ledger plus iteration-boundary checkpoints; on boot the ledger is replayed and the session/jobs resume (empty = off)")
	flag.IntVar(&o.ckptEvery, "ckpt-every", durable.DefaultEvery,
		"checkpoint interval in iterations (with -durable-dir)")
	flag.BoolVar(&o.standby, "standby", false,
		"warm standby: tail -durable-dir behind the live primary and take over when its lock releases")
	flag.Parse()

	// SIGQUIT dumps the flight-recorder ring as JSONL to stderr and
	// keeps running — the field-debugging hook every binary carries.
	obs.FlightDumpOnSIGQUIT("felaserver")

	tensor.SetParallelism(o.kernelPar)
	fmt.Printf("felaserver: compute kernels on the %s path, fan-out %d\n", tensor.KernelPath(), tensor.Parallelism())

	if err := serve(o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "felaserver:", err)
		os.Exit(1)
	}
}

// server is the scaffold both serving modes share: the validated
// options, the durability plane, the telemetry sinks and the /healthz
// gate.
type server struct {
	o        serverOpts
	compress transport.Compression
	sig      <-chan os.Signal
	plane    *durable.Plane
	// Nil unless -status-addr or -trace-json asks for them, keeping the
	// uninstrumented fast path.
	metrics *obs.Registry
	spans   *obs.Tracer
	// draining flips when shutdown begins; restoring holds from a
	// durable boot until the restored work has workers again. /healthz
	// serves 503 while either is set.
	draining, restoring atomic.Bool

	spec    transport.JobSpec   // session mode: the preset's single session
	ctrl    *elastic.Controller // session mode: -elastic membership
	jobsCfg jobs.Config         // jobs mode: the manager's policies
	trace   workload.Trace      // jobs mode: the -cluster-trace arrivals
}

// serve validates o before anything is opened or listens, opens the
// durability plane and runs the mode o selects. A signal on sig (nil =
// real SIGINT/SIGTERM) drains the server, bounded by -drain-timeout,
// and returns nil for a clean exit.
func serve(o serverOpts, sig <-chan os.Signal) error {
	s, err := newServer(o)
	if err != nil {
		return err
	}
	if s.sig = sig; sig == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(ch)
		s.sig = ch
	}
	if s.plane, err = openDurable(o.durableDir, o.standby); err != nil {
		return err
	}
	if o.jobs {
		err = s.runJobs()
	} else {
		err = s.runSession()
	}
	if s.plane != nil {
		if cerr := s.plane.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newServer checks every option and resolves what the chosen mode
// needs. The single session is the jobs preset — the default model at
// seed 0, batch 64 in tokens of 8 — trained for -iters iterations. Jobs
// train exact: a lossy -compress is refused rather than silently
// dropped.
func newServer(o serverOpts) (*server, error) {
	s := &server{o: o}
	var err error
	if s.compress, err = transport.ParseCompression(o.compress); err != nil {
		return nil, err
	}
	if o.workerTimeout < 0 {
		return nil, fmt.Errorf("-worker-timeout %v must not be negative", o.workerTimeout)
	}
	if o.drainTimeout <= 0 {
		s.o.drainTimeout = defaultDrainTimeout
	}
	if o.statusAddr != "" || o.traceJSON != "" {
		s.metrics, s.spans = obs.NewRegistry(), obs.NewTracer("felaserver")
	}
	if !o.jobs {
		if s.spec, err = jobs.NormalizeSpec(transport.JobSpec{Iterations: o.iters}); err != nil {
			return nil, err
		}
		if !o.elastic {
			return s, nil
		}
		if o.workerTimeout == 0 {
			// A session that runs on as workers come and go should not
			// wait forever on one that hangs: give it a generous deadline.
			s.o.workerTimeout = 10 * time.Second
		}
		if s.ctrl, err = elastic.NewController(elastic.Config{MinWorkers: o.minWorkers, MaxWorkers: o.maxWorkers}); err != nil {
			return nil, err
		}
		return s, nil
	}
	if s.compress != transport.CompressExact {
		return nil, fmt.Errorf("-compress %v is single-session only: -jobs mode trains every job exact", s.compress)
	}
	pol, ok := jobs.PolicyByName(o.alloc)
	if !ok {
		return nil, fmt.Errorf("unknown allocation policy %q (want fair-share, priority, throughput-max or oasis)", o.alloc)
	}
	s.jobsCfg = jobs.Config{Policy: pol, WorkerTimeout: o.workerTimeout}
	if o.admission != "" {
		if s.jobsCfg.Admission, ok = jobs.AdmissionByName(o.admission); !ok {
			return nil, fmt.Errorf("unknown admission policy %q (want none or oasis)", o.admission)
		}
	}
	if o.clusterTrace != "" {
		// Replay maps only non-positive scales to 1: a NaN would replay
		// the trace with no pacing at all.
		if sc := o.traceScale; math.IsNaN(sc) || math.IsInf(sc, 0) || sc <= 0 {
			return nil, fmt.Errorf("trace scale %v must be finite and positive", sc)
		}
		if s.trace, err = workload.Load(o.clusterTrace); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openDurable opens the durability plane at dir (nil plane when dir is
// empty). In standby mode a locked directory is not an error: the
// standby tails the ledger behind the live primary — printing each
// decision as it commits — and takes over the moment the primary's
// flock releases (the kernel drops it on process death).
func openDurable(dir string, standby bool) (*durable.Plane, error) {
	if dir == "" {
		return nil, nil
	}
	plane, err := durable.Open(dir, durable.Options{})
	if err == nil || !standby || !errors.Is(err, durable.ErrLocked) {
		return plane, err
	}
	fmt.Printf("felaserver: standby: %s is held by a live primary, tailing its ledger\n", dir)
	tail := durable.NewTailer(dir)
	for {
		ents, terr := tail.Poll()
		if terr != nil {
			fmt.Fprintf(os.Stderr, "felaserver: standby: ledger tail: %v\n", terr)
		}
		for _, e := range ents {
			fmt.Printf("felaserver: standby: seq %d %s job=%d iter=%d\n", e.Seq, e.Op, e.JobID, e.Iter)
		}
		plane, err = durable.Open(dir, durable.Options{})
		if err == nil {
			fmt.Println("felaserver: standby: primary lock released, taking over")
			return plane, nil
		}
		if !errors.Is(err, durable.ErrLocked) {
			return nil, err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// ledgerAppend lands a session decision in the ledger, best effort
// (session mode keeps serving when the disk misbehaves; the loss is
// printed).
func (s *server) ledgerAppend(op durable.Op, wid int) {
	if s.plane == nil {
		return
	}
	if _, err := s.plane.Ledger.Append(durable.Entry{Op: op, JobID: sessionJobID, WID: wid}); err != nil {
		fmt.Fprintf(os.Stderr, "felaserver: ledger append: %v\n", err)
	}
}

// listen serves telemetry on -status-addr, when set, and opens the
// server's listener; the returned func closes both. /healthz reads the
// shared gate: 503 while restoring or draining, and once stopped
// closes.
func (s *server) listen(what string, status func() any, stopped <-chan struct{}) (*transport.Listener, func(), error) {
	stop := func() {}
	if s.o.statusAddr != "" {
		bound, stopObs, err := obs.Serve(s.o.statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: s.metrics,
			Status:   status,
			Health: func() error {
				if s.restoring.Load() {
					return errors.New("restoring")
				}
				if s.draining.Load() {
					return fmt.Errorf("%s is draining", what)
				}
				select {
				case <-stopped:
					return fmt.Errorf("%s stopped", what)
				default:
					return nil
				}
			},
			Tracers: []*obs.Tracer{s.spans},
		}))
		if err != nil {
			return nil, nil, err
		}
		stop = stopObs
		fmt.Printf("felaserver: telemetry on http://%s (/metrics /statusz /trace /debug/pprof)\n", bound)
	}
	l, err := transport.Listen(s.o.addr)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return l, func() { l.Close(); stop() }, nil
}

// drain marks the server draining, runs begin, and waits up to
// -drain-timeout for done; false means the deadline passed first.
func (s *server) drain(begin func(), done <-chan struct{}) bool {
	s.draining.Store(true)
	begin()
	select {
	case <-done:
		return true
	case <-time.After(s.o.drainTimeout):
		return false
	}
}

// writeTrace writes the spans as Chrome trace_event JSON to -trace-json
// (nothing when the flag is empty).
func (s *server) writeTrace() error {
	if s.o.traceJSON == "" {
		return nil
	}
	f, err := os.Create(s.o.traceJSON)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, s.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("felaserver: wrote span trace to %s (load in Perfetto / chrome://tracing)\n", s.o.traceJSON)
	return nil
}

// runJobs serves the multi-tenant job manager: one TCP port accepts
// both pool workers and job submissions (the manager classifies each
// connection by its first message). With -max-jobs the server drains
// and exits after that many completions; with -cluster-trace it drains
// once every replayed submission has settled. With a durability plane,
// every scheduling decision write-aheads through the ledger and open
// jobs from a prior incarnation are restored before the listener opens.
func (s *server) runJobs() error {
	cfg := s.jobsCfg
	cfg.Metrics, cfg.Spans = s.metrics, s.spans
	if s.plane != nil {
		cfg.Durable = s.plane
		cfg.CheckpointEvery = s.o.ckptEvery
	}
	// full closes once -max-jobs completions have settled. The callback
	// does not touch mgr: settlements a restart found reach it as soon
	// as the loop runs, which can be before NewManager has returned.
	full := make(chan struct{})
	completed := 0
	cfg.OnJobDone = func(r jobs.JobResult) {
		// Runs on the manager's event loop: serialized.
		if r.Err != nil {
			fmt.Printf("felaserver: job %d (%s) failed after %.2fs: %v\n",
				r.ID, r.Spec.Name, r.Runtime.Seconds(), r.Err)
		} else {
			verified := "DIVERGED from solo training"
			if ref, err := jobs.Reference(r.Spec); err == nil && minidnn.ParamsEqual(ref.Params, r.Result.Params) {
				verified = "bit-identical to solo training"
			}
			fmt.Printf("felaserver: job %d (%s) done: %d iters, final loss %.6f, queued %.2fs, ran %.2fs, %s\n",
				r.ID, r.Spec.Name, r.Spec.Iterations, r.Result.Losses[len(r.Result.Losses)-1],
				r.QueueWait.Seconds(), r.Runtime.Seconds(), verified)
		}
		completed++
		if s.o.maxJobs > 0 && completed == s.o.maxJobs {
			fmt.Printf("felaserver: %d jobs complete, draining\n", completed)
			s.draining.Store(true)
			close(full)
		}
	}
	mgr := jobs.NewManager(cfg)
	go func() {
		select {
		case <-full:
			mgr.Stop()
		case <-mgr.Done():
		}
	}()
	if s.plane != nil {
		st := mgr.Status()
		open := st.Queued + st.Running
		fmt.Printf("felaserver: durable: replayed %d ledger entries — %d open jobs to resume, %d settled\n",
			len(s.plane.Entries), open, st.Completed)
		s.restoring.Store(open > 0)
	}
	if s.restoring.Load() {
		// The replayed jobs sit queued until pool workers reconnect
		// through their own retry loops; /healthz flips healthy once the
		// pool has capacity again (or the restored work settles without
		// needing any, e.g. jobs whose final checkpoint already landed).
		go func() {
			for {
				select {
				case <-mgr.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
				st := mgr.Status()
				if st.Workers > 0 || st.Queued+st.Running == 0 {
					s.restoring.Store(false)
					fmt.Println("felaserver: durable: restore complete, pool serving")
					return
				}
			}
		}()
	}

	l, closeL, err := s.listen("job manager", mgr.StatusAny, mgr.Done())
	if err != nil {
		mgr.Stop()
		<-mgr.Done()
		return err
	}
	defer closeL()
	gate := "admit-all"
	if cfg.Admission != nil {
		gate = cfg.Admission.Name()
	}
	fmt.Printf("felaserver: job manager (policy %s, admission %s) listening on %s\n",
		cfg.Policy.Name(), gate, l.Addr())

	if s.o.clusterTrace != "" {
		// Replay the trace on its own open-loop clock, wait for every
		// submission to settle, print the cluster summary, then drain.
		go func() {
			tr := s.trace
			results := make(chan jobs.JobResult, len(tr.Events))
			start := time.Now()
			submitted := workload.Replay(tr, s.o.traceScale, mgr.Done(), func(e workload.Event) {
				_, ch, err := mgr.SubmitJob(e.Spec, jobs.SubmitOptions{SLO: e.SLO})
				if err != nil {
					results <- jobs.JobResult{Spec: e.Spec, SLO: e.SLO, Err: err}
					return
				}
				go func() { results <- <-ch }()
			})
			var rejected, failed, completed, met int
			for i := 0; i < submitted; i++ {
				switch r := <-results; {
				case errors.Is(r.Err, jobs.ErrRejected):
					rejected++
				case r.Err != nil:
					failed++
				default:
					completed++
					if r.SLO > 0 && r.QueueWait+r.Runtime <= r.SLO {
						met++
					}
				}
			}
			fmt.Printf("felaserver: trace %q replayed in %.2fs: %d submitted, %d rejected, %d completed, %d failed, SLO attainment %.3f\n",
				tr.Name, time.Since(start).Seconds(), submitted, rejected, completed, failed,
				float64(met)/float64(max(submitted, 1)))
			s.draining.Store(true)
			mgr.Stop()
		}()
	}

	// A signal starts the drain: the manager stops, which closes the
	// listener below and unblocks Accept. The deadline closes the
	// listener even if the pool never finishes draining.
	go func() {
		select {
		case sg := <-s.sig:
			fmt.Printf("felaserver: %v received, draining job manager (timeout %s)\n", sg, s.o.drainTimeout)
			if !s.drain(mgr.Stop, mgr.Done()) {
				fmt.Println("felaserver: drain deadline passed, closing listener")
				l.Close()
			}
		case <-mgr.Done():
		}
	}()

	// Unblock Accept once the manager drains so the server can exit.
	go func() {
		<-mgr.Done()
		l.Close()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			break
		}
		mgr.Admit(c)
	}
	if !s.drain(mgr.Stop, mgr.Done()) {
		fmt.Println("felaserver: drain deadline passed with the pool still busy, exiting")
		return nil
	}
	if err := s.writeTrace(); err != nil {
		return err
	}
	fmt.Printf("felaserver: job manager drained (%d jobs served)\n", completed)
	return nil
}

// runSession serves one synchronous training session. A signal stops
// accepting joiners and waits up to -drain-timeout for the in-flight
// session to finish before exiting 0. With a durability plane the
// session checkpoints through it and resumes from the latest checkpoint
// on boot; /healthz serves 503 "restoring" until the initial worker set
// has rejoined.
func (s *server) runSession() error {
	mk, _, err := jobs.BuildSession(s.spec)
	if err != nil {
		return err
	}
	cfg := jobs.RTConfig(s.spec, s.o.workers)
	cfg.WorkerTimeout = s.o.workerTimeout
	cfg.Compress = s.compress
	cfg.Metrics, cfg.Spans = s.metrics, s.spans
	if s.plane != nil {
		ckpt, err := s.plane.Store.Load(sessionJobID)
		if err != nil {
			return err
		}
		if ckpt != nil && ckpt.Iter+1 >= s.o.iters {
			// The final checkpoint committed before the crash: the crash
			// ate only the verification and exit, so no workers are needed.
			return s.finishFromCheckpoint(mk(), ckpt)
		}
		if ckpt != nil {
			cfg.Resume = &rt.Resume{Iter: ckpt.Iter, Params: ckpt.Params, Vel: ckpt.Vel, Losses: ckpt.Losses}
			fmt.Printf("felaserver: durable: resuming from checkpoint at iteration %d/%d\n", ckpt.Iter, s.o.iters)
		}
		cfg.CheckpointEvery = s.o.ckptEvery
		cfg.Checkpoint = jobs.CheckpointHook(s.plane, sessionJobID, nil)
		// 503 until every initial worker has (re)connected.
		s.restoring.Store(true)
	}
	if s.ctrl != nil {
		s.ctrl.SetObs(cfg.Metrics)
		cfg.Elastic = s.ctrl
	}

	// Build the coordinator before listening so a bad configuration
	// fails immediately instead of after all workers have connected.
	co, err := rt.NewCoordinator(mk(), cfg)
	if err != nil {
		return err
	}
	l, closeL, err := s.listen("session", co.StatusAny, nil)
	if err != nil {
		return err
	}
	defer closeL()
	fmt.Printf("felaserver: listening on %s, waiting for %d workers\n", l.Addr(), s.o.workers)

	// Accept on a channel so a signal during the wait-for-workers phase
	// still exits cleanly instead of blocking in Accept forever.
	connCh := make(chan transport.Conn)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			connCh <- c
		}
	}()
	conns := make([]transport.Conn, 0, s.o.workers)
	for len(conns) < s.o.workers {
		select {
		case c := <-connCh:
			conns = append(conns, c)
			s.ledgerAppend(durable.OpJoin, len(conns)-1)
			fmt.Printf("felaserver: worker connection %d/%d\n", len(conns), s.o.workers)
		case <-acceptDone:
			return fmt.Errorf("listener closed with %d/%d workers connected", len(conns), s.o.workers)
		case sg := <-s.sig:
			fmt.Printf("felaserver: %v received with %d/%d workers connected, exiting\n", sg, len(conns), s.o.workers)
			s.ledgerAppend(durable.OpDrain, -1)
			for _, c := range conns {
				c.Close()
			}
			return nil
		}
	}
	// Replay and rejoin are complete: the session is about to train.
	s.restoring.Store(false)
	// Later connections are join candidates under -elastic; otherwise
	// the session is full and each is closed at once, so its dialer
	// sees EOF instead of waiting on an accept that never comes. The
	// loop ends when the deferred closeL unblocks Accept.
	go func() {
		for {
			select {
			case c := <-connCh:
				if s.ctrl == nil || co.Admit(c) != nil {
					c.Close()
					continue
				}
				fmt.Println("felaserver: admitted a join candidate (effective at the next barrier)")
			case <-acceptDone:
				return
			}
		}
	}()

	// Run the session racing the signal: on SIGINT/SIGTERM stop
	// accepting joiners and give the in-flight session -drain-timeout
	// to reach its natural barrier-aligned end before exiting anyway.
	var res *rt.Result
	var runErr error
	ran := make(chan struct{})
	go func() {
		res, runErr = co.Run(conns)
		close(ran)
	}()
	select {
	case <-ran:
	case sg := <-s.sig:
		fmt.Printf("felaserver: %v received, draining session (timeout %s)\n", sg, s.o.drainTimeout)
		s.ledgerAppend(durable.OpDrain, -1)
		if !s.drain(func() { l.Close() }, ran) { // no more joiners
			fmt.Println("felaserver: drain deadline passed with the session still running, exiting")
			return nil
		}
	}
	if runErr != nil {
		return runErr
	}
	for i, loss := range res.Losses {
		fmt.Printf("iteration %3d: loss %.6f\n", i, loss)
	}
	fmt.Printf("tokens per worker: %v (steals: %d)\n", res.TokensByWorker, res.Steals)
	if len(res.Scales) > 0 {
		fmt.Printf("scale events: %v\n", metrics.ScaleSequence(res.Scales))
		for _, ev := range res.Scales {
			fmt.Println("  " + ev.String())
		}
	}
	if s.ctrl != nil && s.ctrl.Retuner().Retunes() > 0 {
		fmt.Printf("re-tunes: %d; final shares: %v\n", s.ctrl.Retuner().Retunes(), s.ctrl.Retuner().Shares())
	}
	if len(res.Faults) > 0 {
		st := metrics.SummarizeFaults(res.Faults)
		fmt.Printf("faults: %d (by class: %v), dead workers: %v, tokens reassigned: %d\n",
			st.Total, st.ByClass, res.DeadWorkers, res.Reassigned)
		for _, ev := range res.Faults {
			fmt.Println("  " + ev.String())
		}
	}
	if err := s.writeTrace(); err != nil {
		return err
	}
	return s.verify("distributed", res.Losses, res.Params)
}

// finishFromCheckpoint settles a session whose final checkpoint
// already covers every iteration: the crash ate only the verification
// and exit, so the model is rebuilt from the frame and verified
// without waiting for any workers.
func (s *server) finishFromCheckpoint(net *minidnn.Network, ckpt *durable.Checkpoint) error {
	fmt.Printf("felaserver: durable: checkpoint at iteration %d already covers the session, verifying\n", ckpt.Iter)
	if err := rt.InstallFlat(net.Params(), ckpt.Params); err != nil {
		return err
	}
	for i, loss := range ckpt.Losses {
		fmt.Printf("iteration %3d: loss %.6f\n", i, loss)
	}
	return s.verify("restored", ckpt.Losses, net.Params())
}

// verify checks a session's final model against the preset's
// sequential reference. Lossy gradient compression gives up the
// bit-identical guarantee by design, so under a lossy codec it reports
// how far the quantization moved the final loss instead.
func (s *server) verify(what string, losses []float64, params []*tensor.Tensor) error {
	ref, err := jobs.Reference(s.spec)
	if err != nil {
		return err
	}
	if s.compress != transport.CompressExact {
		refLoss, gotLoss := ref.Losses[len(ref.Losses)-1], losses[len(losses)-1]
		fmt.Printf("lossy compression (%v): final loss %.6f vs sequential %.6f (delta %+.6f)\n",
			s.compress, gotLoss, refLoss, gotLoss-refLoss)
		return nil
	}
	if !minidnn.ParamsEqual(ref.Params, params) {
		return fmt.Errorf("%s result diverged from sequential reference", what)
	}
	fmt.Printf("verified: %s result is bit-identical to sequential SGD\n", what)
	return nil
}

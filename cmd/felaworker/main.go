// Command felaworker joins a felaserver session as one real-time worker:
// it connects, registers its worker id, then pulls tokens and trains
// them on its replica of the model and dataset. The replica is the jobs
// preset's single session, rebuilt from its deterministic seeds, so the
// worker needs no session flags: each token names the rows to train,
// and the iteration count is the server's alone.
//
//	felaworker -addr 127.0.0.1:7070 -wid 0
//
// The worker connects with retry-and-backoff (-retries), so it can be
// started before the server. If the coordinator disappears mid-session
// the worker reports the loss and exits cleanly rather than crashing:
// a fault-tolerant coordinator deliberately closes the connections of
// workers it has declared dead, and that is not a worker-side error.
//
// Against a `felaserver -elastic` session two more modes exist:
//
//	felaworker -addr ... -join            dial into an in-progress session;
//	                                      the coordinator assigns the worker
//	                                      id at the next iteration barrier
//	felaworker -addr ... -wid 1 -drain-after 10
//	                                      announce a graceful leave at
//	                                      iteration 10 and depart at that
//	                                      barrier
//
// Against a `felaserver -jobs` pool the worker runs in pool mode:
//
//	felaworker -addr ... -pool            register with the job manager,
//	                                      serve whatever jobs it assigns
//	                                      (reconnecting between jobs and
//	                                      across migrations) until the
//	                                      pool shuts down
//
// With -reconnect a fixed-wid worker outlives its coordinator: when the
// server dies mid-session the worker re-dials (with the -retries
// backoff) and re-registers with a fresh model replica instead of
// exiting, which is how workers rejoin a `felaserver -durable-dir`
// restart-and-resume.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// workerOpts bundles every flag so tests can drive run directly.
type workerOpts struct {
	addr       string
	wid        int
	straggle   int
	retries    int
	join       bool
	drainAfter int
	reconnect  bool
	pool       bool
	statusAddr string
	compress   string
	kernelPar  int
}

// healthFromStatus maps the worker's status snapshot to a liveness
// verdict: healthy until the worker announces a drain, 503 after (a
// draining worker should fall out of load-balancer rotation). A nil
// snapshot — before registration completes — still reads healthy: the
// process is up, it just has no session yet.
func healthFromStatus(st *rt.WorkerStatus) error {
	if st != nil && st.Draining {
		return fmt.Errorf("worker %d is draining", st.WID)
	}
	return nil
}

func main() {
	var o workerOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7070", "coordinator address")
	flag.IntVar(&o.wid, "wid", 0, "this worker's id (0-based, unique per worker; ignored with -join)")
	flag.IntVar(&o.straggle, "straggle", 0, "artificial per-iteration sleep in ms (demo stragglers)")
	flag.IntVar(&o.retries, "retries", 10, "connection attempts before giving up")
	flag.BoolVar(&o.join, "join", false, "join an in-progress elastic session instead of registering a fixed wid")
	flag.IntVar(&o.drainAfter, "drain-after", -1, "announce a graceful leave at this iteration (elastic sessions; -1 = never)")
	flag.BoolVar(&o.reconnect, "reconnect", false,
		"survive coordinator restarts: when the server dies mid-session, re-dial and re-register instead of exiting (pairs with felaserver -durable-dir)")
	flag.BoolVar(&o.pool, "pool", false, "register with a felaserver -jobs pool and serve assigned jobs until shutdown")
	flag.StringVar(&o.statusAddr, "status-addr", "",
		"serve worker-side telemetry (/metrics, /statusz, /trace, /debug/pprof) on this address (empty = off)")
	flag.StringVar(&o.compress, "compress", "",
		"gradient compression to request for reports (exact, fp16, int8, topk; empty = exact). Engages only when the felaserver permits the same codec; lossy codecs trade the bit-identical guarantee for smaller reports")
	flag.IntVar(&o.kernelPar, "kernel-par", 0,
		"compute-kernel fan-out: goroutines per matmul/conv (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	// SIGQUIT dumps the flight-recorder ring as JSONL to stderr and
	// keeps running — the field-debugging hook every binary carries.
	obs.FlightDumpOnSIGQUIT("felaworker")

	tensor.SetParallelism(o.kernelPar)
	fmt.Printf("felaworker: compute kernels on the %s path, fan-out %d\n", tensor.KernelPath(), tensor.Parallelism())

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "felaworker:", err)
		os.Exit(1)
	}
}

// run validates o, then works in the mode it selects: a pool worker, a
// joiner, or a fixed-wid worker.
func run(o workerOpts) error {
	compress, err := transport.ParseCompression(o.compress)
	if err != nil {
		return err
	}
	if o.pool && compress != transport.CompressExact {
		// Pool jobs train exact: a lossy codec is refused rather than
		// silently dropped.
		return fmt.Errorf("-compress %v is single-session only: -pool mode trains every job exact", compress)
	}
	if o.join && o.reconnect {
		return fmt.Errorf("-reconnect applies to fixed-wid workers (a joiner's id dies with its session)")
	}

	// cur is the fixed-wid worker's live incarnation. A joiner's id is
	// assigned mid-protocol and a pool worker serves many short
	// sessions, so for them /statusz stays 503; /metrics, /trace and
	// pprof work from the start.
	var cur atomic.Pointer[rt.Worker]
	var reg *obs.Registry
	var spans *obs.Tracer
	if o.statusAddr != "" {
		reg, spans = obs.NewRegistry(), obs.NewTracer("felaworker")
		bound, stop, err := obs.Serve(o.statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: reg,
			Status:   func() any { return cur.Load().StatusAny() },
			Health:   func() error { return healthFromStatus(cur.Load().Status()) },
			Tracers:  []*obs.Tracer{spans},
		}))
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("felaworker: telemetry on http://%s (/metrics /statusz /trace /debug/pprof)\n", bound)
	}
	var delay func(int, int) time.Duration
	if o.straggle > 0 {
		delay = func(int, int) time.Duration { return time.Duration(o.straggle) * time.Millisecond }
	}
	dial := func() (transport.Conn, error) {
		return transport.DialRetry(o.addr, o.retries, 100*time.Millisecond)
	}

	if o.pool {
		// Each assignment carries its job's spec: the session comes from
		// there.
		served, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{
			Delay: delay, Metrics: reg, Spans: spans,
			Log: func(format string, args ...any) {
				fmt.Printf("felaworker: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("felaworker: pool shut down after %d job assignments\n", served)
		return nil
	}

	// The replica is felaserver's single session: the jobs preset at
	// seed 0. The iteration count shapes neither model nor data, so any
	// positive one builds it.
	spec, err := jobs.NormalizeSpec(transport.JobSpec{Iterations: 1})
	if err != nil {
		return err
	}
	mk, ds, err := jobs.BuildSession(spec)
	if err != nil {
		return err
	}
	cfg := rt.Config{Delay: delay, Metrics: reg, Spans: spans, Compress: compress}
	if o.drainAfter >= 0 {
		cfg.Drain = func(iter, _ int) bool { return iter >= o.drainAfter }
	}
	for {
		conn, err := dial()
		if err != nil {
			return err
		}
		fmt.Printf("felaworker: connected to %s\n", o.addr)
		if o.join {
			return join(conn, mk(), ds, cfg)
		}
		// Each registration trains a fresh replica: after a restart, the
		// first iter-start delivers the resumed model snapshot.
		w := rt.NewWorker(o.wid, mk(), ds, cfg)
		cur.Store(w)
		err = w.Run(conn)
		conn.Close()
		if err == nil {
			fmt.Printf("felaworker %d: session complete\n", o.wid)
			return nil
		}
		if !o.reconnect {
			return workerExit(o.wid, err)
		}
		switch transport.Classify(err) {
		case transport.ClassPeerGone, transport.ClassClosed:
		default:
			return err
		}
		// The coordinator died (or evicted us). A durable server replays
		// its ledger and resumes the session from the last checkpoint.
		fmt.Printf("felaworker %d: coordinator lost (%v), reconnecting\n", o.wid, err)
	}
}

// join enters an in-progress elastic session on conn; the coordinator
// assigns the worker id at the next iteration barrier.
func join(conn transport.Conn, net *minidnn.Network, ds *minidnn.Dataset, cfg rt.Config) error {
	defer conn.Close()
	assigned, err := rt.Join(conn, net, ds, cfg)
	if err != nil {
		return workerExit(-1, err)
	}
	if assigned < 0 {
		fmt.Println("felaworker: session ended before this joiner was admitted")
		return nil
	}
	fmt.Printf("felaworker: admitted as worker %d; session complete\n", assigned)
	return nil
}

// workerExit folds coordinator-side disconnects into a clean exit: a
// fault-tolerant coordinator deliberately closes the connections of
// workers it has declared dead.
func workerExit(wid int, err error) error {
	switch transport.Classify(err) {
	case transport.ClassPeerGone, transport.ClassClosed:
		fmt.Printf("felaworker %d: coordinator lost (%v), exiting\n", wid, err)
		return nil
	}
	return err
}

// Command felaworker joins a felaserver session as one real-time worker:
// it connects, registers its worker id, then pulls tokens and trains
// them on its replica of the model and dataset (both reconstructed from
// the shared deterministic seeds).
//
//	felaworker -addr 127.0.0.1:7070 -wid 0 -workers 4 -iters 20
//
// The -workers/-iters flags must match the server's so that the derived
// session configuration is identical on both sides.
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
	"time"

	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

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
	addr := flag.String("addr", "127.0.0.1:7070", "coordinator address")
	wid := flag.Int("wid", 0, "this worker's id (0-based, unique per worker; ignored with -join)")
	workers := flag.Int("workers", 4, "total workers in the session (must match server)")
	iters := flag.Int("iters", 20, "iterations (must match server)")
	sleepMS := flag.Int("straggle", 0, "artificial per-iteration sleep in ms (demo stragglers)")
	retries := flag.Int("retries", 10, "connection attempts before giving up")
	join := flag.Bool("join", false, "join an in-progress elastic session instead of registering a fixed wid")
	drainAfter := flag.Int("drain-after", -1, "announce a graceful leave at this iteration (elastic sessions; -1 = never)")
	reconnect := flag.Bool("reconnect", false,
		"survive coordinator restarts: when the server dies mid-session, re-dial and re-register instead of exiting (pairs with felaserver -durable-dir)")
	pool := flag.Bool("pool", false, "register with a felaserver -jobs pool and serve assigned jobs until shutdown")
	statusAddr := flag.String("status-addr", "",
		"serve worker-side telemetry (/metrics, /statusz, /trace, /debug/pprof) on this address (empty = off)")
	compressName := flag.String("compress", "",
		"gradient compression to request for reports (exact, fp16, int8, topk; empty = exact). Engages only when the felaserver permits the same codec; lossy codecs trade the bit-identical guarantee for smaller reports")
	kernelPar := flag.Int("kernel-par", 0,
		"compute-kernel fan-out: goroutines per matmul/conv (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	// SIGQUIT dumps the flight-recorder ring as JSONL to stderr and
	// keeps running — the field-debugging hook every binary carries.
	obs.FlightDumpOnSIGQUIT("felaworker")

	tensor.SetParallelism(*kernelPar)
	fmt.Printf("felaworker: compute kernels on the %s path, fan-out %d\n", tensor.KernelPath(), tensor.Parallelism())

	var err error
	compress, cerr := transport.ParseCompression(*compressName)
	if cerr != nil {
		err = cerr
	} else if *pool {
		err = runPool(*addr, *sleepMS, *retries, *statusAddr, compress)
	} else {
		err = run(*addr, *wid, *workers, *iters, *sleepMS, *retries, *join, *drainAfter, *reconnect, *statusAddr, compress)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "felaworker:", err)
		os.Exit(1)
	}
}

// runPool registers with a felaserver -jobs pool and serves assigned
// jobs until the pool shuts down, reconnecting between jobs and after
// migrations. The session parameters come from each assignment's
// JobSpec, so no -workers/-iters agreement is needed. Pool jobs train
// exact, so a lossy codec is refused rather than silently dropped.
func runPool(addr string, sleepMS, retries int, statusAddr string, compress transport.Compression) error {
	if compress != transport.CompressExact {
		return fmt.Errorf("-compress %v is single-session only: -pool mode trains every job exact", compress)
	}
	opts := jobs.PoolWorkerOptions{
		Log: func(format string, args ...any) {
			fmt.Printf("felaworker: "+format+"\n", args...)
		},
	}
	if sleepMS > 0 {
		opts.Delay = func(int, int) time.Duration { return time.Duration(sleepMS) * time.Millisecond }
	}
	if statusAddr != "" {
		opts.Metrics = obs.NewRegistry()
		opts.Spans = obs.NewTracer("felaworker")
		// Pool workers serve many short sessions, so there is no single
		// /statusz document; /metrics and /trace aggregate across jobs.
		bound, stop, err := obs.Serve(statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: opts.Metrics,
			Tracers:  []*obs.Tracer{opts.Spans},
		}))
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("felaworker: telemetry on http://%s\n", bound)
	}
	dial := func() (transport.Conn, error) {
		return transport.DialRetry(addr, retries, 100*time.Millisecond)
	}
	served, err := jobs.RunPoolWorker(dial, opts)
	if err != nil {
		return err
	}
	fmt.Printf("felaworker: pool shut down after %d job assignments\n", served)
	return nil
}

func run(addr string, wid, workers, iters, sleepMS, retries int, join bool, drainAfter int, reconnect bool, statusAddr string, compress transport.Compression) error {
	cfg := rt.Config{
		Workers:    workers,
		TotalBatch: 64,
		TokenBatch: 8,
		Iterations: iters,
		LR:         0.05,
		Compress:   compress,
	}
	if statusAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		cfg.Spans = obs.NewTracer("felaworker")
	}
	if sleepMS > 0 {
		cfg.Delay = func(int, int) time.Duration { return time.Duration(sleepMS) * time.Millisecond }
	}
	if drainAfter >= 0 {
		cfg.Drain = func(iter, _ int) bool { return iter >= drainAfter }
	}
	net := minidnn.NewMLP(42, 16, 32, 4)
	ds := minidnn.SyntheticBlobs(7, 256, 16, 4)

	conn, err := transport.DialRetry(addr, retries, 100*time.Millisecond)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("felaworker: connected to %s\n", addr)

	if join {
		if reconnect {
			return fmt.Errorf("-reconnect applies to fixed-wid workers (a joiner's id dies with its session)")
		}
		// A joiner's worker id is assigned mid-protocol, so its /statusz
		// stays 503; /metrics, /trace and pprof work from the start.
		if statusAddr != "" {
			bound, stop, err := obs.Serve(statusAddr, obs.NewHandler(obs.HandlerOptions{
				Registry: cfg.Metrics,
				Tracers:  []*obs.Tracer{cfg.Spans},
			}))
			if err != nil {
				return err
			}
			defer stop()
			fmt.Printf("felaworker: telemetry on http://%s\n", bound)
		}
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

	w := rt.NewWorker(wid, net, ds, cfg)
	if statusAddr != "" {
		bound, stop, err := obs.Serve(statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: cfg.Metrics,
			Status:   w.StatusAny,
			Health:   func() error { return healthFromStatus(w.Status()) },
			Tracers:  []*obs.Tracer{cfg.Spans},
		}))
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("felaworker %d: telemetry on http://%s (/metrics /statusz /trace /debug/pprof)\n", wid, bound)
	}
	for {
		err := w.Run(conn)
		if err == nil {
			fmt.Printf("felaworker %d: session complete\n", wid)
			return nil
		}
		switch transport.Classify(err) {
		case transport.ClassPeerGone, transport.ClassClosed:
			if !reconnect {
				return workerExit(wid, err)
			}
		default:
			return err
		}
		// The coordinator died (or evicted us). A durable server replays
		// its ledger and resumes the session from the last checkpoint, so
		// re-register with a fresh replica — the first iter-start after
		// registration delivers the resumed model snapshot.
		conn.Close()
		fmt.Printf("felaworker %d: coordinator lost (%v), reconnecting\n", wid, err)
		conn, err = transport.DialRetry(addr, retries, 100*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Printf("felaworker %d: reconnected to %s\n", wid, addr)
		net = minidnn.NewMLP(42, 16, 32, 4)
		w = rt.NewWorker(wid, net, ds, cfg)
	}
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

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// trainRun is one finished session over loopback TCP.
type trainRun struct {
	res     *rt.Result
	iters   int
	wall    time.Duration // Coordinator.Run
	total   time.Duration // build, listen, dial, Run, teardown
	iterGap []float64     // ms between consecutive iteration starts on worker 0

	usage // over Coordinator.Run

	// Traced sessions only.
	trace     *trainTrace
	coordReg  *obs.Registry
	workerReg *obs.Registry
}

// usage is what a run cost the process: kernel calls, and for a traced
// run (reading the memory statistics stops the world) bytes allocated
// and time paused for garbage collection.
type usage struct {
	kernels   tensor.KernelStats
	allocB    uint64
	gcPauseNS uint64
}

// meter starts measuring a run's usage; the returned function ends it.
func meter(traced bool) (stop func() usage) {
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	k := tensor.ReadKernelStats()
	return func() usage {
		k2 := tensor.ReadKernelStats()
		u := usage{kernels: tensor.KernelStats{
			ParallelCalls: k2.ParallelCalls - k.ParallelCalls,
			SerialCalls:   k2.SerialCalls - k.SerialCalls,
			BusyNanos:     k2.BusyNanos - k.BusyNanos,
			WallNanos:     k2.WallNanos - k.WallNanos,
		}}
		if traced {
			runtime.ReadMemStats(&after)
			u.allocB = after.TotalAlloc - before.TotalAlloc
			u.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
		}
		return u
	}
}

func (w *workload) config(iters int) rt.Config {
	return rt.Config{
		Workers:    workers,
		TotalBatch: w.totalBatch,
		TokenBatch: w.tokenBatch,
		Iterations: iters,
		LR:         w.lr,
		Compress:   w.compress,
	}
}

// reference is the single-process computation a session must reproduce.
func (w *workload) reference(seed int64, iters int) (*rt.Result, error) {
	cfg := w.config(iters)
	cfg.Compress = transport.CompressExact
	return rt.Sequential(w.newNet(seed), w.newData(seed+1), cfg)
}

// runTrain builds the model replicas and the dataset from seed, connects
// two workers to a coordinator over loopback TCP with the binary codec,
// and trains for iters iterations. With traced set, every connection end
// is wrapped and both sides record into obs registries.
func runTrain(w *workload, seed int64, iters int, traced bool) (*trainRun, error) {
	began := time.Now()
	run := &trainRun{iters: iters}
	ds := w.newData(seed + 1)
	cfg := w.config(iters)
	wcfg := cfg
	if traced {
		run.coordReg, run.workerReg = obs.NewRegistry(), obs.NewRegistry()
	}
	// Iteration starts are stamped from outside, through the public
	// Delay hook of worker 0; the hook also injects the straggler.
	stamps := make([]time.Time, iters)
	wcfg.Delay = func(iter, wid int) time.Duration {
		if wid == 0 {
			stamps[iter] = time.Now()
		}
		if w.straggle > 0 && wid == iter%workers {
			return w.straggle
		}
		return 0
	}
	if w.tokenDelay > 0 {
		wcfg.TokenDelay = func(int, int) time.Duration { return w.tokenDelay }
	}

	ln, err := transport.ListenCodec("127.0.0.1:0", transport.CodecBinary)
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	epoch := time.Now()
	// A traced connection counts its codec work (encodes, decodes, wire
	// bytes) into its side's registry. The registries are not handed to
	// rt.Config.Metrics: that would switch on the session's whole
	// telemetry plane, and the run would measure the plane.
	wrap := func(c transport.Conn, reg *obs.Registry) (transport.Conn, *tracedConn) {
		if !traced {
			return c, nil
		}
		transport.SetConnMetrics(c, reg)
		tc := newTracedConn(c, epoch)
		return tc, tc
	}

	var (
		wg          sync.WaitGroup
		workerErrs  = make([]error, workers)
		workerConns = make([]*tracedConn, workers)
		closers     []transport.Conn
		mu          sync.Mutex
	)
	for wid := 0; wid < workers; wid++ {
		net := w.newNet(seed)
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			raw, err := transport.DialCodec(ln.Addr(), transport.CodecBinary)
			if err != nil {
				workerErrs[wid] = err
				return
			}
			conn, tc := wrap(raw, run.workerReg)
			mu.Lock()
			closers = append(closers, raw)
			workerConns[wid] = tc
			mu.Unlock()
			workerErrs[wid] = rt.NewWorker(wid, net, ds, wcfg).Run(conn)
		}(wid)
	}
	conns := make([]transport.Conn, workers)
	coordConns := make([]*tracedConn, workers)
	for i := range conns {
		raw, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		conns[i], coordConns[i] = wrap(raw, run.coordReg)
		mu.Lock()
		closers = append(closers, raw)
		mu.Unlock()
	}
	co, err := rt.NewCoordinator(w.newNet(seed), cfg)
	if err != nil {
		return nil, err
	}

	stop := meter(traced)
	t0 := time.Now()
	res, runErr := co.Run(conns)
	run.wall = time.Since(t0)
	run.usage = stop()
	if runErr != nil {
		// Unblock the workers before reporting.
		mu.Lock()
		for _, c := range closers {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	wg.Wait() // every worker has read its shutdown
	for _, c := range closers {
		c.Close()
	}
	for wid, err := range workerErrs {
		if err != nil {
			return nil, fmt.Errorf("%s: worker %d: %w", w.name, wid, err)
		}
	}
	run.res = res
	for i := 1; i < iters; i++ {
		run.iterGap = append(run.iterGap, ms(stamps[i].Sub(stamps[i-1])))
	}
	if traced {
		run.trace = analyze(w, iters, workerConns, coordConns)
	}
	run.total = time.Since(began)
	return run, nil
}

// tokensPerSec is iterations x tokens per iteration over the wall time
// of Coordinator.Run.
func (r *trainRun) tokensPerSec(w *workload) float64 {
	return float64(r.iters*w.tokensPerIter()) / r.wall.Seconds()
}

// check counts the ways a session's outputs are wrong. ref is the
// Sequential result for the same seed, at least as long as the session.
// A session as long as ref must end with ref's parameters; a shorter one
// (a warm-up) must have, bit for bit, the start of ref's loss history,
// which every update but its last went into.
func (r *trainRun) check(w *workload, ref *rt.Result) (failed int, notes []string) {
	want := r.iters * w.tokensPerIter()
	got := 0
	for _, n := range r.res.TokensByWorker {
		got += n
	}
	if got != want {
		failed += abs(want - got)
		notes = append(notes, fmt.Sprintf("%d tokens trained, want %d", got, want))
	}
	if len(r.res.Faults) > 0 || len(r.res.DeadWorkers) > 0 {
		failed++
		notes = append(notes, fmt.Sprintf("%d worker faults", len(r.res.Faults)))
	}
	if len(r.res.Losses) != r.iters {
		failed++
		notes = append(notes, fmt.Sprintf("%d losses for %d iterations", len(r.res.Losses), r.iters))
		return failed, notes
	}
	if w.compress != transport.CompressExact {
		// A lossy codec has no exact reference: the loss may lag behind
		// Sequential's by lossDeltaMax. That it repeats is checked across
		// sessions.
		if d := r.lossDelta(ref); !(d <= lossDeltaMax) {
			failed++
			notes = append(notes, fmt.Sprintf("lossy final loss %.4g above rt.Sequential's by more than %.2g", d, lossDeltaMax))
		}
		return failed, notes
	}
	switch {
	case !samePrefix(r.res.Losses, ref.Losses):
		failed++
		notes = append(notes, "loss history differs from rt.Sequential")
	case r.iters == len(ref.Losses) && !minidnn.ParamsEqual(r.res.Params, ref.Params):
		failed++
		notes = append(notes, "final parameters differ from rt.Sequential")
	}
	return failed, notes
}

// lossDeltaMax is how far a lossy session's final loss may lie above
// rt.Sequential's. The lag grows with every iteration while the loss is
// still falling steeply, which is where these sessions end (see workload),
// so the gate holds for the session length the workload defines, and cut
// never lengthens a session beyond it.
const lossDeltaMax = 0.05

// lossDelta is the final-iteration loss minus the reference's.
func (r *trainRun) lossDelta(ref *rt.Result) float64 {
	return r.res.Losses[r.iters-1] - ref.Losses[r.iters-1]
}

// samePrefix reports whether a's loss history is bit-for-bit the start
// of b's: a lossy session has no exact reference, but it must repeat.
func samePrefix(a, b []float64) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

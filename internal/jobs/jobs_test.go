package jobs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// testConfig is a manager tuned for fast tests: quick rebalance ticks,
// generous hang deadline, metrics on.
func testConfig(pol AllocPolicy) Config {
	return Config{
		Policy:        pol,
		Tick:          20 * time.Millisecond,
		WorkerTimeout: 10 * time.Second,
		Metrics:       obs.NewRegistry(),
	}
}

// poolDial returns an in-process dial function: each call makes a fresh
// Pair and admits the server end to the manager.
func poolDial(m *Manager) func() (transport.Conn, error) {
	return func() (transport.Conn, error) {
		select {
		case <-m.Done():
			return nil, fmt.Errorf("pool closed")
		default:
		}
		server, client := transport.Pair()
		m.Admit(server)
		return client, nil
	}
}

// startPool launches n pool workers and returns a wait function that
// must be called after the manager drains.
func startPool(t *testing.T, m *Manager, n int, opts PoolWorkerOptions) func() {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunPoolWorker(poolDial(m), opts)
			errs <- err
		}()
	}
	return func() {
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("pool worker: %v", err)
			}
		}
	}
}

// waitIdle polls until the pool reports at least n idle workers.
func waitIdle(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Status(); st != nil && st.Idle >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("pool never reached %d idle workers (status %+v)", n, m.Status())
}

// awaitResult receives a job result with a timeout.
func awaitResult(t *testing.T, ch <-chan JobResult, name string) JobResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not complete", name)
		return JobResult{}
	}
}

// mustMatchReference asserts a pooled job's final model is bit-identical
// to the same spec trained alone.
func mustMatchReference(t *testing.T, res JobResult, name string) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("job %s failed: %v", name, res.Err)
	}
	ref, err := Reference(res.Spec)
	if err != nil {
		t.Fatalf("reference for %s: %v", name, err)
	}
	if !minidnn.ParamsEqual(res.Result.Params, ref.Params) {
		t.Fatalf("job %s params diverge from its solo reference", name)
	}
	for i, l := range ref.Losses {
		if res.Result.Losses[i] != l {
			t.Fatalf("job %s loss[%d] = %v, want %v", name, i, res.Result.Losses[i], l)
		}
	}
}

// stopAndWait drains the manager and the pool workers.
func stopAndWait(t *testing.T, m *Manager, wait func()) {
	t.Helper()
	m.Stop()
	select {
	case <-m.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("manager did not drain")
	}
	wait()
}

// TestSingleJobMatchesSequential: the simplest pooled session — one job
// on two workers — must reproduce the sequential reference bitwise.
func TestSingleJobMatchesSequential(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	wait := startPool(t, m, 2, PoolWorkerOptions{})
	waitIdle(t, m, 2)

	ch, err := m.Submit(transport.JobSpec{Name: "solo", Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitResult(t, ch, "solo")
	mustMatchReference(t, res, "solo")
	if res.WorkerIters == 0 {
		t.Fatal("job consumed no worker-iterations")
	}
	stopAndWait(t, m, wait)
}

// TestTwoJobMigration: job A takes the whole pool; job B's arrival makes
// fair-share claw half of it back through reassign-drain-rejoin
// migrations. Both finish bit-identical to their solo references, and
// the scale log proves a migration actually happened.
func TestTwoJobMigration(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	delay := func(iter, wid int) time.Duration { return time.Millisecond }
	wait := startPool(t, m, 4, PoolWorkerOptions{Delay: delay})
	waitIdle(t, m, 4)

	chA, err := m.Submit(transport.JobSpec{Name: "A", Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Give A time to start on all four workers before B arrives.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := m.Status()
		if st != nil && st.Running == 1 && st.Idle == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	chB, err := m.Submit(transport.JobSpec{Name: "B", Seed: 5, Iterations: 10, TotalBatch: 32})
	if err != nil {
		t.Fatal(err)
	}

	resA := awaitResult(t, chA, "A")
	resB := awaitResult(t, chB, "B")
	mustMatchReference(t, resA, "A")
	mustMatchReference(t, resB, "B")

	reassigns, leaves := 0, 0
	for _, ev := range resA.Result.Scales {
		switch ev.Kind {
		case metrics.ScaleReassign:
			reassigns++
		case metrics.ScaleLeave:
			leaves++
		}
	}
	if reassigns == 0 || leaves == 0 {
		t.Fatalf("job A scale log shows no migration: %v", metrics.ScaleSequence(resA.Result.Scales))
	}

	reg := m.cfg.Metrics
	if v := reg.CounterValues(MetricReturns); len(v) == 0 {
		t.Fatal("no worker returns counted")
	}
	leases := int64(0)
	for _, v := range reg.CounterValues(MetricLeases) {
		leases += v
	}
	if leases < 5 { // 4 initial + at least 1 migration lease
		t.Fatalf("leases = %d, want >= 5", leases)
	}
	stopAndWait(t, m, wait)
}

// TestQueuedJobRunsAfterCompletion: with a single worker the second job
// must queue, then run to the same bits once the first finishes.
func TestQueuedJobRunsAfterCompletion(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	wait := startPool(t, m, 1, PoolWorkerOptions{})
	waitIdle(t, m, 1)

	chA, err := m.Submit(transport.JobSpec{Name: "first", Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	chB, err := m.Submit(transport.JobSpec{Name: "second", Seed: 9, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	resA := awaitResult(t, chA, "first")
	resB := awaitResult(t, chB, "second")
	mustMatchReference(t, resA, "first")
	mustMatchReference(t, resB, "second")
	stopAndWait(t, m, wait)

	st := m.Status()
	if st == nil || st.Completed != 2 {
		t.Fatalf("final status completed = %+v, want 2", st)
	}
}

// reassignKiller wraps a pool worker's conn and simulates a process
// death at a chosen point of the migration protocol: on the first
// armed KindReassign it (optionally announces the leave and then)
// drops the connection.
type reassignKiller struct {
	transport.Conn
	afterLeave bool
	armed      *atomic.Bool
}

func (k *reassignKiller) Recv() (*transport.Message, error) {
	m, err := k.Conn.Recv()
	if err != nil || m.Kind != transport.KindReassign {
		return m, err
	}
	if !k.armed.CompareAndSwap(true, false) {
		return m, err
	}
	if k.afterLeave {
		// Die between the leave announcement and the drain ack — the
		// drain-racing-death window.
		_ = k.Conn.Send(&transport.Message{Kind: transport.KindLeave, WID: m.WID})
	}
	k.Conn.Close()
	return nil, transport.ErrClosed
}

// runMigrationChaos is the acceptance chaos scenario: two jobs contend
// for the pool, a migration is provoked, and exactly one worker dies at
// the given point of the migration drain. Both jobs must still finish
// bit-identical to their solo runs.
func runMigrationChaos(t *testing.T, afterLeave bool) {
	// A failed chaos run leaves its causal event history in
	// $FELA_FLIGHT_DIR for CI to upload as an artifact.
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if path, err := obs.FlightFailureDump(t.Name()); err == nil {
			t.Logf("flight-recorder dump: %s", path)
		}
	})
	m := NewManager(testConfig(FairShare{}))
	armed := new(atomic.Bool)
	armed.Store(true)
	dial := func() (transport.Conn, error) {
		c, err := poolDial(m)()
		if err != nil {
			return nil, err
		}
		return &reassignKiller{Conn: c, afterLeave: afterLeave, armed: armed}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunPoolWorker(dial, PoolWorkerOptions{
				Delay: func(iter, wid int) time.Duration { return time.Millisecond },
			}); err != nil {
				t.Errorf("pool worker: %v", err)
			}
		}()
	}
	waitIdle(t, m, 4)

	chA, err := m.Submit(transport.JobSpec{Name: "victim-donor", Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := m.Status()
		if st != nil && st.Running == 1 && st.Idle == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	chB, err := m.Submit(transport.JobSpec{Name: "recipient", Seed: 3, Iterations: 10, TotalBatch: 32})
	if err != nil {
		t.Fatal(err)
	}

	resA := awaitResult(t, chA, "victim-donor")
	resB := awaitResult(t, chB, "recipient")
	mustMatchReference(t, resA, "victim-donor")
	mustMatchReference(t, resB, "recipient")

	if armed.Load() {
		t.Fatal("no reassign ever reached a worker; the chaos point was not exercised")
	}
	// The worker that died mid-migration must appear as a death (before
	// the leave) or a completed drain (after the leave), never both
	// silently dropped.
	if afterLeave {
		if len(resA.Result.Scales) == 0 {
			t.Fatal("no scale events on the donor job")
		}
	} else if len(resA.Result.DeadWorkers) == 0 && len(resA.Result.Faults) == 0 {
		t.Fatal("death before leave left no fault trace on the donor job")
	}

	m.Stop()
	select {
	case <-m.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("manager did not drain")
	}
	wg.Wait()
}

// TestChaosDeathDuringMigrationBeforeLeave kills the migrating worker
// the instant it is asked to move, before it can announce the drain.
func TestChaosDeathDuringMigrationBeforeLeave(t *testing.T) {
	runMigrationChaos(t, false)
}

// TestChaosDeathDuringMigrationAfterLeave kills the migrating worker
// after the leave announcement but before the drain ack.
func TestChaosDeathDuringMigrationAfterLeave(t *testing.T) {
	runMigrationChaos(t, true)
}

// TestWireSubmission runs the full TCP path: a listener feeding
// Admit, felaworker-style pool workers dialing in, and a client
// submitting over the wire with SubmitAndWait.
func TestWireSubmission(t *testing.T) {
	m := NewManager(testConfig(&ThroughputMax{}))
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m.Admit(c)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dial := func() (transport.Conn, error) { return transport.Dial(ln.Addr()) }
			if _, err := RunPoolWorker(dial, PoolWorkerOptions{}); err != nil {
				t.Errorf("pool worker: %v", err)
			}
		}()
	}
	waitIdle(t, m, 2)

	// A bad spec is rejected over the wire with a terminal error.
	if _, err := SubmitAndWait(ln.Addr(), transport.JobSpec{Name: "bad"}, 3); err == nil {
		t.Fatal("zero-iteration spec accepted")
	}

	msg, err := SubmitAndWait(ln.Addr(), transport.JobSpec{Name: "wire", Iterations: 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(transport.JobSpec{Name: "wire", Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Params) != len(ref.Params) {
		t.Fatalf("result has %d tensors, want %d", len(msg.Params), len(ref.Params))
	}
	for i, p := range ref.Params {
		for j, v := range p.Data {
			if msg.Params[i][j] != v {
				t.Fatalf("wire result param[%d][%d] = %v, want %v", i, j, msg.Params[i][j], v)
			}
		}
	}
	if msg.Loss != ref.Losses[len(ref.Losses)-1] {
		t.Fatalf("wire result loss = %v, want %v", msg.Loss, ref.Losses[len(ref.Losses)-1])
	}

	m.Stop()
	select {
	case <-m.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("manager did not drain")
	}
	wg.Wait()
}

// TestWireSubmissionRejected: a wire submission whose spec fails
// NormalizeSpec gets a job-done carrying the error and a closed conn,
// and counts as one rejection.
func TestWireSubmissionRejected(t *testing.T) {
	cfg := testConfig(FairShare{})
	m := NewManager(cfg)
	defer func() {
		m.Stop()
		<-m.Done()
	}()
	server, client := transport.Pair()
	m.Admit(server)
	if err := client.Send(&transport.Message{Kind: transport.KindSubmitJob, Job: transport.JobSpec{Name: "bad"}}); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != transport.KindJobDone || !strings.Contains(reply.Err, "iterations must be positive") {
		t.Fatalf("reply %v (err %q), want a job-done carrying the validation error", reply.Kind, reply.Err)
	}
	if extra, err := client.Recv(); err == nil {
		t.Fatalf("conn still open after the rejection: received %v", extra.Kind)
	}
	if got := cfg.Metrics.Counter(MetricRejected).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRejected, got)
	}
}

// TestPoolJobWindowOverTCP: a pool job of many one-sample tokens over
// TCP, where each lease's asyncConn forwards the coordinator's batched
// assigns and the binary conn holds all but the last of each batch,
// is bit-identical to its solo reference.
func TestPoolJobWindowOverTCP(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m.Admit(c)
		}
	}()
	dial := func() (transport.Conn, error) { return transport.Dial(ln.Addr()) }
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunPoolWorker(dial, PoolWorkerOptions{}); err != nil {
				t.Errorf("pool worker: %v", err)
			}
		}()
	}
	waitIdle(t, m, 2)

	ch, err := m.Submit(transport.JobSpec{Name: "window", Iterations: 12, TotalBatch: 128, TokenBatch: 1, Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	mustMatchReference(t, awaitResult(t, ch, "window"), "window")
	stopAndWait(t, m, wg.Wait)
}

// TestPoolJobBatch1OverTCP: a plain-SGD pool job of one-sample tokens
// over TCP, whose reports carry each dense weight gradient as its
// rank-1 factors, is bit-identical to its solo reference.
func TestPoolJobBatch1OverTCP(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m.Admit(c)
		}
	}()
	dial := func() (transport.Conn, error) { return transport.Dial(ln.Addr()) }
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunPoolWorker(dial, PoolWorkerOptions{}); err != nil {
				t.Errorf("pool worker: %v", err)
			}
		}()
	}
	waitIdle(t, m, 2)

	ch, err := m.Submit(transport.JobSpec{Name: "rank1", Iterations: 6, TotalBatch: 48, TokenBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustMatchReference(t, awaitResult(t, ch, "rank1"), "rank1")
	stopAndWait(t, m, wg.Wait)
}

// TestManagerAdmitAllByName: the admit-all admission policy, selected by
// name as felaserver -admission selects it, names itself in the pool
// status and admits a submission, which runs to its reference.
func TestManagerAdmitAllByName(t *testing.T) {
	pol, ok := AdmissionByName("admit-all")
	if !ok || pol.Name() != "admit-all" {
		t.Fatalf("AdmissionByName(admit-all) = %v, %v", pol, ok)
	}
	cfg := testConfig(FairShare{})
	cfg.Admission = pol
	m := NewManager(cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := RunPoolWorker(poolDial(m), PoolWorkerOptions{}); err != nil {
			t.Errorf("pool worker: %v", err)
		}
	}()
	waitIdle(t, m, 1)
	ch, err := m.Submit(transport.JobSpec{Name: "open", Iterations: 3, TotalBatch: 32, TokenBatch: 8})
	if err != nil {
		t.Fatalf("admit-all refused a submission: %v", err)
	}
	mustMatchReference(t, awaitResult(t, ch, "open"), "open")
	if st := m.Status(); st == nil || st.Admission != "admit-all" {
		t.Fatalf("pool status names admission %+v, want admit-all", st)
	}
	stopAndWait(t, m, wg.Wait)
}

// TestManagerStopIdleWorkers: stopping an idle pool releases the
// workers cleanly with zero jobs served.
func TestManagerStopIdleWorkers(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	served := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := RunPoolWorker(poolDial(m), PoolWorkerOptions{})
			if err != nil {
				t.Errorf("pool worker: %v", err)
			}
			served <- n
		}()
	}
	waitIdle(t, m, 2)
	m.Stop()
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("manager did not drain")
	}
	wg.Wait()
	close(served)
	for n := range served {
		if n != 0 {
			t.Fatalf("idle worker served %d jobs, want 0", n)
		}
	}
}

// TestDrainBoundsAwayWorker: a drain waits for the workers it handed
// to jobs to rejoin, but one that takes a lease and is not heard from
// again holds Done for rejoinGrace and not much longer. When it does
// rejoin, after the drain, it is told to shut down.
func TestDrainBoundsAwayWorker(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	join := func(jobID int) transport.Conn {
		server, client := transport.Pair()
		m.Admit(server)
		if err := client.Send(&transport.Message{Kind: transport.KindJoin, JobID: jobID}); err != nil {
			t.Fatal(err)
		}
		return client
	}
	client := join(0)
	id, ch, err := m.SubmitJob(transport.JobSpec{Iterations: 1, MinWorkers: 1, MaxWorkers: 1}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := client.Recv(); err != nil || msg.Kind != transport.KindSubmitJob {
		t.Fatalf("worker got %v, %v; want its assignment", msg, err)
	}
	m.Cancel(id)
	awaitResult(t, ch, "leased")
	start := time.Now()
	stopAndWait(t, m, func() {})
	if took := time.Since(start); took < rejoinGrace || took > rejoinGrace+5*time.Second {
		t.Fatalf("Done closed %v after Stop, want just after the away worker's %v bound", took, rejoinGrace)
	}
	if msg, err := join(id).Recv(); err != nil || msg.Kind != transport.KindShutdown {
		t.Fatalf("late rejoin got %v, %v; want a shutdown", msg, err)
	}
}

// TestSubmitAfterStop: a stopped manager refuses new submissions.
func TestSubmitAfterStop(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	m.Stop()
	<-m.Done()
	if _, err := m.Submit(transport.JobSpec{Iterations: 1}); err == nil {
		t.Fatal("submit after stop succeeded")
	}
}

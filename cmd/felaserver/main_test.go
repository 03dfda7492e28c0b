package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fmt"

	"fela/internal/durable"
	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/transport"
	"fela/internal/workload"
)

// freeAddr reserves an ephemeral TCP port and returns it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// replica builds a worker's copy of the single session as felaworker
// does: the jobs preset at seed 0.
func replica(t *testing.T) (*minidnn.Network, *minidnn.Dataset) {
	t.Helper()
	spec, err := jobs.NormalizeSpec(transport.JobSpec{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk, ds, err := jobs.BuildSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	return mk(), ds
}

// startWorker launches a registered worker over TCP on the replica
// felaworker builds; cfg carries its delays and telemetry.
func startWorker(t *testing.T, addr string, wid int, cfg rt.Config, wg *sync.WaitGroup) {
	t.Helper()
	net, ds := replica(t)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
		if err != nil {
			t.Errorf("worker %d dial: %v", wid, err)
			return
		}
		defer conn.Close()
		if err := rt.NewWorker(wid, net, ds, cfg).Run(conn); err != nil {
			switch transport.Classify(err) {
			case transport.ClassPeerGone, transport.ClassClosed:
			default:
				t.Errorf("worker %d: %v", wid, err)
			}
		}
	}()
}

// TestServerSession: a single non-elastic session without
// -worker-timeout works end to end over TCP, with no fault: a worker the
// session declared dead would see its conn closed, while in a clean
// session every worker ends on the shutdown without an error.
func TestServerSession(t *testing.T) {
	addr := freeAddr(t)
	const workers, iters = 2, 4

	errs := make(chan error, workers)
	for wid := 0; wid < workers; wid++ {
		net, ds := replica(t)
		go func() {
			conn, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			errs <- rt.NewWorker(wid, net, ds, rt.Config{}).Run(conn)
		}()
	}
	if err := serve(serverOpts{addr: addr, workers: workers, iters: iters}, nil); err != nil {
		t.Fatal(err)
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestServerClosesSurplusConnection: a non-elastic session with its
// -workers connected closes any further connection at once, and the
// session still finishes verified bit-identical (serve fails
// otherwise). The worker holds its first iteration until the surplus
// dialer has its answer, so the session is running throughout.
func TestServerClosesSurplusConnection(t *testing.T) {
	addr := freeAddr(t)
	checked := make(chan struct{})
	release := sync.OnceFunc(func() { close(checked) })
	defer release()
	hold := rt.Config{Delay: func(iter, _ int) time.Duration {
		if iter == 0 {
			<-checked
		}
		return 0
	}}
	net, ds := replica(t)
	served := make(chan error, 1)
	go func() { served <- serve(serverOpts{addr: addr, workers: 1, iters: 4}, nil) }()

	conn, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	worked := make(chan error, 1)
	go func() { worked <- rt.NewWorker(0, net, ds, hold).Run(conn) }()

	surplus, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer surplus.Close()
	got := make(chan error, 1)
	go func() {
		_, err := surplus.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		if c := transport.Classify(err); c != transport.ClassPeerGone && c != transport.ClassClosed {
			t.Errorf("surplus connection read %v (class %v), want it closed", err, c)
		}
	case <-time.After(5 * time.Second):
		t.Error("surplus connection still open 5s after the session filled")
	}
	release()

	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := <-worked; err != nil {
		if c := transport.Classify(err); c != transport.ClassPeerGone && c != transport.ClassClosed {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestServerElasticSession drives the full CLI path over real TCP: two
// registered workers, one late joiner (the felaworker -join path), and a
// mid-session drain (-drain-after). The run must verify bit-identity
// against the sequential reference, which the server checks itself.
func TestServerElasticSession(t *testing.T) {
	addr := freeAddr(t)
	const workers, iters = 2, 12
	// Throttle registered workers so the session lasts long enough for
	// the joiner to dial in, and so the joiner reliably gets to train
	// once admitted.
	slow := rt.Config{Delay: func(int, int) time.Duration { return 15 * time.Millisecond }}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		startWorker(t, addr, wid, slow, &wg)
	}

	// The joiner dials in once the session is already running and drains
	// out again near the end — exercising join, re-tune, and drain in
	// one process lifetime (felaworker -join -drain-after 10).
	joined := make(chan int, 1)
	net, ds := replica(t)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		conn, err := transport.DialRetry(addr, 5, 10*time.Millisecond)
		if err != nil {
			t.Errorf("joiner dial: %v", err)
			joined <- -1
			return
		}
		defer conn.Close()
		jcfg := rt.Config{Drain: func(iter, _ int) bool { return iter >= 10 }}
		assigned, err := rt.Join(conn, net, ds, jcfg)
		if err != nil {
			switch transport.Classify(err) {
			case transport.ClassPeerGone, transport.ClassClosed:
			default:
				t.Errorf("joiner: %v", err)
			}
		}
		joined <- assigned
	}()

	o := serverOpts{addr: addr, workers: workers, iters: iters, workerTimeout: 2 * time.Second, elastic: true, minWorkers: 1}
	if err := serve(o, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if assigned := <-joined; assigned != 2 {
		t.Errorf("joiner assigned wid %d, want 2", assigned)
	}
}

// TestServerElasticValidation: nonsensical elastic bounds fail fast.
func TestServerElasticValidation(t *testing.T) {
	err := serve(serverOpts{
		addr: freeAddr(t), workers: 2, iters: 4, workerTimeout: time.Second,
		elastic: true, minWorkers: 5, maxWorkers: 2,
	}, nil)
	if err == nil {
		t.Fatal("min-workers > max-workers accepted")
	}
	if want := "min workers"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// TestServerRejectsBadOptions: a configuration error fails serve before
// anything listens or the durability directory is opened. The test
// holds the listen address itself, so a server that listened first
// would fail on the port instead.
func TestServerRejectsBadOptions(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cases := []struct {
		name string
		o    serverOpts
		want string
	}{
		{"unknown -alloc", serverOpts{jobs: true, alloc: "nope"}, "allocation policy"},
		{"unknown -admission", serverOpts{jobs: true, alloc: "fair-share", admission: "nope"}, "admission policy"},
		{"unknown -compress", serverOpts{workers: 1, iters: 1, compress: "nope"}, "nope"},
		{"lossy -compress with -jobs", serverOpts{jobs: true, alloc: "fair-share", compress: "int8"}, "-jobs"},
		{"NaN -trace-scale", serverOpts{jobs: true, alloc: "fair-share", clusterTrace: "t.jsonl", traceScale: math.NaN()}, "trace scale"},
		{"-min-workers > -max-workers", serverOpts{workers: 2, iters: 4, elastic: true, minWorkers: 3, maxWorkers: 2}, "min workers"},
		{"negative -worker-timeout", serverOpts{workers: 2, iters: 4, workerTimeout: -time.Second}, "-worker-timeout"},
		{"negative -worker-timeout with -jobs", serverOpts{jobs: true, alloc: "fair-share", workerTimeout: -time.Second}, "-worker-timeout"},
		{"zero -iters", serverOpts{workers: 2, iters: 0}, "iterations"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		tc.o.addr, tc.o.durableDir = l.Addr().String(), dir
		err := serve(tc.o, make(chan os.Signal, 1))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: serve returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if ents, _ := os.ReadDir(dir); len(ents) > 0 {
			t.Errorf("%s: durability directory opened before the options were checked", tc.name)
		}
	}
}

// TestServerObservabilityE2E is the acceptance run for the telemetry
// layer: a real TCP elastic session with telemetry enabled and an
// injected straggler, scraped over HTTP while training is in flight.
// It asserts that /metrics parses and carries non-zero token-latency
// buckets plus per-kind transport byte counters, that /statusz tracks
// the live worker count across a join, and that the server's Chrome
// trace export shares trace ids with the workers' — one distributed
// trace per token round-trip.
func TestServerObservabilityE2E(t *testing.T) {
	addr := freeAddr(t)
	statusAddr := freeAddr(t)
	traceJSON := filepath.Join(t.TempDir(), "trace.json")
	const workers, iters = 2, 12

	// Workers share one registry and tracer, standing in for felaworker
	// -status-addr processes. Worker 0 is the injected straggler; the
	// delays also stretch the session so the joiner and the HTTP polls
	// land mid-training.
	wcfg := rt.Config{Metrics: obs.NewRegistry(), Spans: obs.NewTracer("felaworker")}
	wcfg.Delay = func(_, wid int) time.Duration {
		if wid == 0 {
			return 25 * time.Millisecond
		}
		return 10 * time.Millisecond
	}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		startWorker(t, addr, wid, wcfg, &wg)
	}

	// A joiner dials in mid-session (felaworker -join) so /statusz has a
	// membership change to report. It waits until a poll below has seen
	// the two-worker phase: on a timer it could be admitted before any
	// poll landed there, as it was under `go test -race ./...`.
	twoLive, polled := make(chan struct{}), make(chan struct{})
	net, ds := replica(t)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-twoLive:
		case <-polled: // the session ended first; the count check reports it
			return
		}
		conn, err := transport.DialRetry(addr, 5, 10*time.Millisecond)
		if err != nil {
			t.Errorf("joiner dial: %v", err)
			return
		}
		defer conn.Close()
		if _, err := rt.Join(conn, net, ds, wcfg); err != nil {
			switch transport.Classify(err) {
			case transport.ClassPeerGone, transport.ClassClosed:
			default:
				t.Errorf("joiner: %v", err)
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		done <- serve(serverOpts{
			addr: addr, workers: workers, iters: iters, workerTimeout: 2 * time.Second,
			elastic: true, minWorkers: 1, statusAddr: statusAddr, traceJSON: traceJSON,
		}, nil)
	}()

	// Scrape while the session runs. The obs server dies with run(), so
	// the last successful bodies are the session's final live state.
	var lastMetrics, lastFlight string
	healthOK := false
	liveSeen := map[int]bool{}
	joinerGo := false
	client := &http.Client{Timeout: time.Second}
	deadline := time.After(30 * time.Second)
	var runErr error
poll:
	for {
		select {
		case runErr = <-done:
			break poll
		case <-deadline:
			t.Fatal("session did not finish within 30s")
		case <-time.After(5 * time.Millisecond):
		}
		if resp, err := client.Get("http://" + statusAddr + "/statusz"); err == nil {
			var st rt.Status
			err := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil {
				liveSeen[len(st.LiveWorkers)] = true
				if len(st.LiveWorkers) == 2 && !joinerGo {
					close(twoLive)
					joinerGo = true
				}
			}
		}
		if resp, err := client.Get("http://" + statusAddr + "/metrics"); err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && len(body) > 0 {
				lastMetrics = string(body)
			}
		}
		if resp, err := client.Get("http://" + statusAddr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				healthOK = true
			}
		}
		if resp, err := client.Get("http://" + statusAddr + "/debug/flight"); err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && len(body) > 0 {
				lastFlight = string(body)
			}
		}
	}
	close(polled)
	if runErr != nil {
		t.Fatal(runErr)
	}
	wg.Wait()

	// /statusz tracked membership across the join: 2 registered workers,
	// then 3 after the barrier admitted the joiner.
	if !liveSeen[2] || !liveSeen[3] {
		t.Errorf("statusz live-worker counts seen = %v, want both 2 and 3", liveSeen)
	}

	// /healthz answered 200 while the session ran, and /debug/flight
	// streamed the protocol ring as JSONL.
	if !healthOK {
		t.Error("never saw a 200 from /healthz while the session ran")
	}
	if lastFlight == "" {
		t.Error("never scraped /debug/flight successfully")
	}
	flightEvents := 0
	for _, line := range strings.Split(strings.TrimSpace(lastFlight), "\n") {
		if line == "" {
			continue
		}
		var ev obs.FlightEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("flight dump line %q: %v", line, err)
		}
		flightEvents++
	}
	if flightEvents == 0 {
		t.Error("flight dump held no events after a full session")
	}

	// /metrics parses as OpenMetrics-flavoured text — including exemplar
	// suffixes on histogram buckets — and passes the exposition lint.
	if lastMetrics == "" {
		t.Fatal("never scraped /metrics successfully")
	}
	if errs := obs.LintExposition(strings.NewReader(lastMetrics)); len(errs) > 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
	exp, err := obs.ParseExposition(strings.NewReader(lastMetrics))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	tokenCount := 0.0
	tokenBuckets := 0
	exemplars := 0
	byteKinds := map[string]bool{}
	for _, s := range exp.Samples {
		switch {
		case s.Name == rt.MetricTokenSeconds+"_count":
			tokenCount = s.Value
		case s.Name == rt.MetricTokenSeconds+"_bucket":
			if s.Value > 0 {
				tokenBuckets++
			}
			if s.Exemplar != nil {
				exemplars++
			}
		case s.Name == transport.MetricBytes:
			if s.Value > 0 {
				byteKinds[s.Labels["kind"]] = true
			}
		}
	}
	if tokenCount == 0 {
		t.Errorf("%s_count is zero in the final scrape", rt.MetricTokenSeconds)
	}
	if tokenBuckets == 0 {
		t.Errorf("no non-zero %s buckets", rt.MetricTokenSeconds)
	}
	if exemplars == 0 {
		t.Errorf("no exemplars on %s buckets", rt.MetricTokenSeconds)
	}
	if len(byteKinds) < 2 {
		t.Errorf("per-kind transport byte counters = %v, want at least 2 kinds", byteKinds)
	}

	// The server's trace export and the workers' share trace ids: the
	// iteration/token spans the coordinator opened are the parents of the
	// compute spans the workers recorded.
	serverIDs := traceIDs(t, readFileT(t, traceJSON))
	var wbuf bytes.Buffer
	if err := obs.WriteChromeTrace(&wbuf, wcfg.Spans); err != nil {
		t.Fatal(err)
	}
	workerIDs := traceIDs(t, wbuf.Bytes())
	if len(serverIDs) == 0 || len(workerIDs) == 0 {
		t.Fatalf("empty trace exports: server %d ids, workers %d ids", len(serverIDs), len(workerIDs))
	}
	shared := 0
	for id := range workerIDs {
		if serverIDs[id] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no trace id appears in both the server and worker exports")
	}
}

// TestServerJobsMode drives the multi-tenant path end to end over real
// TCP: `felaserver -jobs -alloc throughput-max -max-jobs 2` serving
// three `felaworker -pool` processes and two concurrent wire
// submissions on the same port. The server exits on its own after the
// second completion, both submitters get final parameters bit-identical
// to solo training, and every pool worker exits cleanly.
func TestServerJobsMode(t *testing.T) {
	addr := freeAddr(t)

	done := make(chan error, 1)
	go func() {
		done <- serve(serverOpts{addr: addr, jobs: true, alloc: "throughput-max", maxJobs: 2, workerTimeout: 2 * time.Second}, nil)
	}()

	const poolWorkers = 3
	workersDone := make(chan error, poolWorkers)
	connected := make(chan struct{}, poolWorkers)
	dial := func() (transport.Conn, error) {
		c, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
		if err == nil {
			select {
			case connected <- struct{}{}:
			default:
			}
		}
		return c, err
	}
	for i := 0; i < poolWorkers; i++ {
		go func() {
			_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
			workersDone <- err
		}()
	}
	// Submit only once every worker has reached the pool. Both jobs
	// together last a few milliseconds, less than a worker's first 20 ms
	// backoff: one whose first dial beat the listener would wake to a
	// server that has already drained and closed, and — never having
	// been in the pool — rightly report it unreachable.
	for i := 0; i < poolWorkers; i++ {
		select {
		case <-connected:
		case <-time.After(30 * time.Second):
			t.Fatal("pool workers never connected")
		}
	}

	specs := []transport.JobSpec{
		{Name: "tcp-a", Iterations: 12, TotalBatch: 64, TokenBatch: 8, Seed: 0},
		{Name: "tcp-b", Iterations: 16, TotalBatch: 32, TokenBatch: 8, Seed: 5},
	}
	results := make(chan error, len(specs))
	for _, spec := range specs {
		go func(spec transport.JobSpec) {
			m, err := jobs.SubmitAndWait(addr, spec, 50)
			if err != nil {
				results <- err
				return
			}
			ref, err := jobs.Reference(spec)
			if err != nil {
				results <- err
				return
			}
			flat := make([][]float32, len(ref.Params))
			for i, p := range ref.Params {
				flat[i] = p.Data
			}
			if !flatEqual(flat, m.Params) {
				results <- fmt.Errorf("job %s: wire result diverged from solo training", spec.Name)
				return
			}
			results <- nil
		}(spec)
	}
	for range specs {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after -max-jobs completions")
	}
	for i := 0; i < poolWorkers; i++ {
		if err := <-workersDone; err != nil {
			t.Errorf("pool worker: %v", err)
		}
	}
}

// TestJobsModeRejectsBadTraceScale: with a trace set, a NaN, infinite
// or non-positive -trace-scale is refused before anything is served:
// Replay maps only non-positive scales to 1, so a NaN would replay the
// trace with no pacing at all.
func TestJobsModeRejectsBadTraceScale(t *testing.T) {
	tr, err := workload.Synthesize(
		workload.Poisson{Rate: 4}, workload.DefaultMix(time.Millisecond), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0, -2} {
		sig := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() {
			done <- serve(serverOpts{
				addr: freeAddr(t), jobs: true, alloc: "fair-share", clusterTrace: path, traceScale: scale,
				drainTimeout: 100 * time.Millisecond,
			}, sig)
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("trace scale %v: serve returned nil", scale)
			}
		case <-time.After(2 * time.Second):
			sig <- syscall.SIGTERM
			<-done
			t.Errorf("trace scale %v accepted: serve served the trace", scale)
		}
	}
}

// TestJobsModeRefusesCompression: the job manager trains every job
// exact, so `felaserver -jobs -compress <lossy>` must fail naming the
// mode instead of starting and ignoring the codec.
func TestJobsModeRefusesCompression(t *testing.T) {
	for _, c := range []transport.Compression{transport.CompressFP16, transport.CompressInt8, transport.CompressTopK} {
		sig := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() {
			done <- serve(serverOpts{
				addr: freeAddr(t), jobs: true, alloc: "fair-share", compress: c.String(),
				drainTimeout: 100 * time.Millisecond,
			}, sig)
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "-jobs") || !strings.Contains(err.Error(), c.String()) {
				t.Errorf("-compress %v: serve returned %v, want an error naming -jobs and the codec", c, err)
			}
		case <-time.After(2 * time.Second):
			sig <- syscall.SIGTERM
			<-done
			t.Errorf("-compress %v accepted: serve served the pool", c)
		}
	}
}

// TestServerClusterTrace drives `felaserver -jobs -cluster-trace` end
// to end: a synthesized 4-job trace on disk is replayed (sped up)
// against two TCP pool workers under OASiS admission, and the server
// prints its cluster summary and drains itself once every submission
// settles.
func TestServerClusterTrace(t *testing.T) {
	tr, err := workload.Synthesize(
		workload.Poisson{Rate: 4}, workload.DefaultMix(time.Millisecond), 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "e2e"
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- serve(serverOpts{
			addr: addr, jobs: true, alloc: "oasis", admission: "oasis", clusterTrace: path, traceScale: 4,
			workerTimeout: 2 * time.Second,
		}, nil)
	}()

	const poolWorkers = 2
	workersDone := make(chan error, poolWorkers)
	dial := func() (transport.Conn, error) {
		return transport.DialRetry(addr, 50, 20*time.Millisecond)
	}
	for i := 0; i < poolWorkers; i++ {
		go func() {
			_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
			workersDone <- err
		}()
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain after the trace replay settled")
	}
	for i := 0; i < poolWorkers; i++ {
		if err := <-workersDone; err != nil {
			t.Errorf("pool worker: %v", err)
		}
	}
}

func flatEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// traceIDs extracts the trace_id of every span in a Chrome trace_event
// export, failing the test if the JSON is malformed.
func traceIDs(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	var out struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	ids := map[string]bool{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if id, _ := ev.Args["trace_id"].(string); id != "" {
			ids[id] = true
		}
	}
	return ids
}

// TestJobsModeGracefulShutdown sends a SIGTERM to an idle job manager
// (with a live pool worker attached) and requires a clean nil exit.
func TestJobsModeGracefulShutdown(t *testing.T) {
	addr := freeAddr(t)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(serverOpts{
			addr: addr, jobs: true, alloc: "fair-share", workerTimeout: 2 * time.Second,
			drainTimeout: 10 * time.Second,
		}, sig)
	}()

	workerDone := make(chan error, 1)
	go func() {
		dial := func() (transport.Conn, error) {
			return transport.DialRetry(addr, 50, 20*time.Millisecond)
		}
		_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
		workerDone <- err
	}()

	// Give the worker time to register, then pull the plug.
	time.Sleep(200 * time.Millisecond)
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean exit", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("pool worker did not exit after the manager drained")
	}
}

// TestSessionModeSignalBeforeWorkers interrupts a server still waiting
// for its initial workers; it must exit 0 instead of hanging in Accept.
func TestSessionModeSignalBeforeWorkers(t *testing.T) {
	addr := freeAddr(t)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(serverOpts{addr: addr, workers: 4, iters: 4, drainTimeout: time.Second}, sig)
	}()
	// Wait until the listener is up so the signal lands mid-wait.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sig <- syscall.SIGINT
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after SIGINT")
	}
}

// TestServerDurableSessionResume: a felaserver on -durable-dir survives
// restarts. Phase 1 trains a 4-iteration session to completion, leaving
// a ledger and checkpoints behind. Phase 2 reopens the same directory
// for a longer 8-iteration session: /healthz must serve 503 "restoring"
// until the workers reconnect, then the session resumes from the
// iteration-3 checkpoint and serve itself verifies the result is
// bit-identical to an uninterrupted sequential run. Phase 3 restarts
// once more — the final checkpoint already covers every iteration, so
// the server settles and verifies without waiting for any workers.
func TestServerDurableSessionResume(t *testing.T) {
	dir := t.TempDir()
	opts := func(iters int) serverOpts {
		return serverOpts{addr: freeAddr(t), workers: 2, iters: iters, durableDir: dir, ckptEvery: 2}
	}
	// entries replays the ledger the last phase left behind.
	entries := func() []durable.Entry {
		t.Helper()
		plane, err := openDurable(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		defer plane.Close()
		return plane.Entries
	}

	// Phase 1: checkpointDue commits frames at iterations 1 and 3.
	o := opts(4)
	var wg sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		startWorker(t, o.addr, wid, rt.Config{}, &wg)
	}
	if err := serve(o, nil); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	wg.Wait()

	// Phase 2: same directory, longer session — resume from iteration 3.
	if got := len(entries()); got == 0 {
		t.Fatal("phase 2: replayed ledger is empty")
	}
	o = opts(8)
	o.statusAddr = freeAddr(t)
	statusAddr := o.statusAddr
	done := make(chan error, 1)
	go func() {
		done <- serve(o, nil)
	}()

	// Before any worker reconnects the health gate must hold: 503 with
	// "restoring" in the body. Any other response once the obs server is
	// up is a bug (restoring is set before the listener opens).
	deadline := time.Now().Add(5 * time.Second)
	sawRestoring := false
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + statusAddr + "/healthz")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "restoring") {
			t.Fatalf("healthz before rejoin: status %d body %q, want 503 restoring", resp.StatusCode, body)
		}
		sawRestoring = true
		break
	}
	if !sawRestoring {
		t.Fatal("healthz never answered before the rejoin window closed")
	}

	var wg2 sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		startWorker(t, o.addr, wid, rt.Config{}, &wg2)
	}
	// serve returns an error if the resumed result diverges from the
	// sequential reference, so a nil here is the bit-identity proof.
	if err := <-done; err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	wg2.Wait()

	// Phase 3: the covering checkpoint settles the session workerless.
	var joins, barriers, lastBarrier int
	for _, e := range entries() {
		switch e.Op {
		case durable.OpJoin:
			joins++
		case durable.OpBarrier:
			barriers++
			lastBarrier = e.Iter
		}
	}
	if joins != 4 || barriers < 3 || lastBarrier != 7 {
		t.Fatalf("ledger history: joins=%d barriers=%d last=%d, want 4 joins, >=3 barriers ending at 7",
			joins, barriers, lastBarrier)
	}
	if err := serve(opts(8), nil); err != nil {
		t.Fatalf("phase 3: %v", err)
	}
}

// TestServerDurableJobsSettleOnRestart: a -jobs -durable-dir
// server restarts over a ledger whose only job had already committed
// its final checkpoint. The job settles at restore, with no pool
// worker, and -max-jobs 1 then drains the server cleanly: the
// settlement reaches OnJobDone from the manager's loop, and the
// verdict compares the checkpointed model with solo training.
func TestServerDurableJobsSettleOnRestart(t *testing.T) {
	spec, err := jobs.NormalizeSpec(transport.JobSpec{Name: "done", Model: "mlp-small", Iterations: 4, MinWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := jobs.Reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plane, err := openDurable(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []durable.Entry{
		{Op: durable.OpSubmit, JobID: 1, WID: -1, Spec: spec},
		{Op: durable.OpJobStart, JobID: 1, WID: -1, N: 1},
		{Op: durable.OpBarrier, JobID: 1, WID: -1, Iter: spec.Iterations - 1},
	} {
		if _, err := plane.Ledger.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var params, vel [][]float32
	for _, p := range ref.Params {
		params = append(params, append([]float32(nil), p.Data...))
		vel = append(vel, make([]float32, len(p.Data)))
	}
	ckpt := &durable.Checkpoint{JobID: 1, Iter: spec.Iterations - 1, Params: params, Vel: vel, Losses: ref.Losses}
	if err := plane.Store.Save(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	done := make(chan error, 1)
	go func() {
		done <- serve(serverOpts{
			addr: freeAddr(t), jobs: true, alloc: "fair-share", maxJobs: 1, workerTimeout: time.Second,
			durableDir: dir, ckptEvery: 2, drainTimeout: 10 * time.Second,
		}, make(chan os.Signal, 1))
	}()
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(15 * time.Second):
		runErr = fmt.Errorf("serve did not return")
	}
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if runErr != nil {
		t.Fatalf("restart: %v\n%s", runErr, printed)
	}
	if !strings.Contains(printed, "job 1 (done) done: 4 iters") || !strings.Contains(printed, "bit-identical to solo training") {
		t.Fatalf("no bit-identical verdict for the restored job:\n%s", printed)
	}
}

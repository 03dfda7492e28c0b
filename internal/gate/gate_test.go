package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fela/internal/jobs"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/transport"
)

// fakeShard is a scripted Shard: jobs settle when the test says so.
type fakeShard struct {
	mu       sync.Mutex
	next     int
	chans    map[int]chan jobs.JobResult
	settled  map[int]bool
	canceled []int
	status   atomic.Pointer[jobs.PoolStatus]

	submitErr error
	// settleNow, when non-nil, settles every submission synchronously
	// with the given error (nil = instant success).
	settleNow func(id int, spec transport.JobSpec) error
}

func newFakeShard() *fakeShard {
	return &fakeShard{chans: map[int]chan jobs.JobResult{}, settled: map[int]bool{}}
}

func (f *fakeShard) SubmitJob(spec transport.JobSpec, opts jobs.SubmitOptions) (int, <-chan jobs.JobResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.submitErr != nil {
		return 0, nil, f.submitErr
	}
	f.next++
	id := f.next
	ch := make(chan jobs.JobResult, 1)
	f.chans[id] = ch
	if f.settleNow != nil {
		err := f.settleNow(id, spec)
		res := jobs.JobResult{ID: id, Spec: spec, Err: err}
		if err == nil {
			res.Result = &rt.Result{Losses: []float64{0.5, 0.25}}
		}
		ch <- res
		f.settled[id] = true
	}
	return id, ch, nil
}

// settle delivers job id's terminal result (at most once).
func (f *fakeShard) settle(id int, res jobs.JobResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.settled[id] {
		return
	}
	f.settled[id] = true
	res.ID = id
	f.chans[id] <- res
}

func (f *fakeShard) Cancel(id int) {
	f.mu.Lock()
	f.canceled = append(f.canceled, id)
	f.mu.Unlock()
}

func (f *fakeShard) Status() *jobs.PoolStatus { return f.status.Load() }

func (f *fakeShard) canceledIDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.canceled...)
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.AdmitWait == 0 {
		cfg.AdmitWait = 5 * time.Millisecond
	}
	if cfg.StreamInterval == 0 {
		cfg.StreamInterval = 5 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// do runs one request through the gateway and decodes the JSON reply.
func do(t *testing.T, g *Gateway, method, path, tenant, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set("X-Fela-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

func submit(t *testing.T, g *Gateway, tenant, body string) (SubmitResponse, *httptest.ResponseRecorder) {
	t.Helper()
	var sr SubmitResponse
	w := do(t, g, "POST", "/v1/jobs", tenant, body, &sr)
	return sr, w
}

func waitInflight(t *testing.T, g *Gateway, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d, want %d", g.Inflight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitStatusLifecycle(t *testing.T) {
	fs := newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{fs}})

	sr, w := submit(t, g, "alice", `{"iterations": 4}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit code = %d, body %s", w.Code, w.Body.String())
	}
	if sr.Job == "" || sr.StatusURL != "/v1/jobs/"+sr.Job {
		t.Fatalf("bad submit response: %+v", sr)
	}

	var jv JobView
	do(t, g, "GET", sr.StatusURL, "alice", "", &jv)
	if jv.State != "queued" || jv.Iteration != -1 {
		t.Fatalf("pre-settle view = %+v", jv)
	}

	// Shard publishes a snapshot: status should track the live view.
	fs.status.Store(&jobs.PoolStatus{Jobs: []jobs.JobStatus{
		{ID: 1, State: "running", Iter: 2, Iterations: 4},
	}})
	do(t, g, "GET", sr.StatusURL, "alice", "", &jv)
	if jv.State != "running" || jv.Iteration != 2 {
		t.Fatalf("live view = %+v", jv)
	}

	fs.settle(1, jobs.JobResult{Result: &rt.Result{Losses: []float64{0.9, 0.1}}})
	waitInflight(t, g, 0)
	do(t, g, "GET", sr.StatusURL, "alice", "", &jv)
	if jv.State != "done" || jv.FinalLoss == nil || *jv.FinalLoss != 0.1 {
		t.Fatalf("terminal view = %+v", jv)
	}

	// Cancel after completion is an idempotent no-op reporting the outcome.
	w = do(t, g, "DELETE", sr.StatusURL, "alice", "", &jv)
	if w.Code != http.StatusOK || jv.State != "done" {
		t.Fatalf("cancel-after-done: code %d view %+v", w.Code, jv)
	}
	if got := fs.canceledIDs(); len(got) != 0 {
		t.Fatalf("cancel forwarded to shard after settle: %v", got)
	}

	st := g.Status()
	if st.Submitted != 1 || st.Settled != 1 || st.JobsOK != 1 || st.Inflight != 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestSubmitSynchronousVerdicts(t *testing.T) {
	fs := newFakeShard()
	fs.settleNow = func(int, transport.JobSpec) error { return nil }
	g := newTestGateway(t, Config{Shards: []Shard{fs}, AdmitWait: time.Second})

	// Instant success within AdmitWait: 200 with the terminal view.
	var jv JobView
	w := do(t, g, "POST", "/v1/jobs", "alice", `{"iterations": 2}`, &jv)
	if w.Code != http.StatusOK || jv.State != "done" {
		t.Fatalf("instant success: code %d view %+v", w.Code, jv)
	}

	// Scheduler rejection within AdmitWait: a distinct 422.
	fs.settleNow = func(int, transport.JobSpec) error {
		return fmt.Errorf("wrapped: %w", jobs.ErrRejected)
	}
	w = do(t, g, "POST", "/v1/jobs", "alice", `{"iterations": 2}`, nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("rejection: code %d body %s", w.Code, w.Body.String())
	}
	var eb errBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Code != "scheduler_rejected" {
		t.Fatalf("rejection body %q (err %v)", w.Body.String(), err)
	}
	waitInflight(t, g, 0)
	if st := g.Status(); st.SchedulerRejected != 1 || st.JobsOK != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestSubmitBadRequests(t *testing.T) {
	g := newTestGateway(t, Config{Shards: []Shard{newFakeShard()}})
	if w := do(t, g, "POST", "/v1/jobs", "", "{not json", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", w.Code)
	}
	// TokenBatch must divide TotalBatch: NormalizeSpec rejects.
	if w := do(t, g, "POST", "/v1/jobs", "", `{"total_batch": 10, "token_batch": 3}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", w.Code)
	}
	// A negative total batch cannot train: refused at the edge as
	// invalid_spec, so it never reaches a shard and leases no worker.
	w := do(t, g, "POST", "/v1/jobs", "", `{"iterations": 4, "total_batch": -64, "token_batch": 8}`, nil)
	var eb errBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusBadRequest || eb.Code != "invalid_spec" {
		t.Fatalf("negative total batch: code %d body %s", w.Code, w.Body.String())
	}
	if g.Status().Submitted != 0 {
		t.Fatal("bad requests must not reach a shard")
	}
}

func TestShardUnavailable(t *testing.T) {
	fs := newFakeShard()
	fs.submitErr = fmt.Errorf("manager stopping")
	g := newTestGateway(t, Config{Shards: []Shard{fs}, TenantQuota: 4})
	if w := do(t, g, "POST", "/v1/jobs", "a", `{"iterations": 1}`, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d", w.Code)
	}
	// The failed submit must return its quota slot and shard load.
	if got := g.tenants.snapshot(g.cfg.SLOObjective, time.Now()); len(got) != 1 || got[0].Inflight != 0 {
		t.Fatalf("tenant state after failed submit: %+v", got)
	}
	if g.router.loadOf(0) != 0 {
		t.Fatalf("shard load after failed submit: %d", g.router.loadOf(0))
	}
}

func TestRateLimitShed(t *testing.T) {
	g := newTestGateway(t, Config{Shards: []Shard{newFakeShard()}, TenantRate: 1, TenantBurst: 2})
	codes := []int{}
	for i := 0; i < 4; i++ {
		_, w := submit(t, g, "alice", `{"iterations": 1}`)
		codes = append(codes, w.Code)
		if w.Code == http.StatusTooManyRequests {
			if w.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var eb errBody
			json.Unmarshal(w.Body.Bytes(), &eb)
			if eb.Code != "rate_limited" {
				t.Fatalf("shed code = %q", eb.Code)
			}
		}
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted {
		t.Fatalf("burst not honored: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests || codes[3] != http.StatusTooManyRequests {
		t.Fatalf("over-rate not shed: %v", codes)
	}
	// A different tenant has its own bucket.
	if _, w := submit(t, g, "bob", `{"iterations": 1}`); w.Code != http.StatusAccepted {
		t.Fatalf("bob sheds on alice's bucket: %d", w.Code)
	}
	if st := g.Status(); st.ShedRateLimited != 2 {
		t.Fatalf("shed accounting: %+v", st)
	}
}

func TestQuotaShed(t *testing.T) {
	fs := newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{fs}, TenantQuota: 2})
	for i := 0; i < 2; i++ {
		if _, w := submit(t, g, "alice", `{"iterations": 1}`); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, w.Code)
		}
	}
	_, w := submit(t, g, "alice", `{"iterations": 1}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota code = %d", w.Code)
	}
	var eb errBody
	json.Unmarshal(w.Body.Bytes(), &eb)
	if eb.Code != "quota_exceeded" {
		t.Fatalf("shed code = %q", eb.Code)
	}
	// Settling one job frees a slot.
	fs.settle(1, jobs.JobResult{Result: &rt.Result{}})
	waitInflight(t, g, 1)
	if _, w := submit(t, g, "alice", `{"iterations": 1}`); w.Code != http.StatusAccepted {
		t.Fatalf("post-settle submit: %d", w.Code)
	}
}

func TestQueueBoundShed(t *testing.T) {
	a, b := newFakeShard(), newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{a, b}, QueueBound: 2})
	// Fill both shards (4 slots) with distinct tenants so affinity
	// spreads, then the fifth submit finds every shard at the bound.
	admitted := 0
	for i := 0; admitted < 4 && i < 32; i++ {
		if _, w := submit(t, g, fmt.Sprintf("t%d", i), `{"iterations": 1}`); w.Code == http.StatusAccepted {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("could not fill shards: admitted %d", admitted)
	}
	_, w := submit(t, g, "overflow", `{"iterations": 1}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full code = %d", w.Code)
	}
	var eb errBody
	json.Unmarshal(w.Body.Bytes(), &eb)
	if eb.Code != "queue_full" {
		t.Fatalf("shed code = %q", eb.Code)
	}
}

func TestDraining(t *testing.T) {
	fs := newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{fs}})
	sr, _ := submit(t, g, "alice", `{"iterations": 1}`)

	g.StartDrain()
	if _, w := submit(t, g, "alice", `{"iterations": 1}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", w.Code)
	}
	if w := do(t, g, "GET", "/healthz", "", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", w.Code)
	}
	// Status of in-flight work stays readable during the drain.
	if w := do(t, g, "GET", sr.StatusURL, "alice", "", nil); w.Code != http.StatusOK {
		t.Fatalf("status while draining: %d", w.Code)
	}

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(t.Context()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned with work in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	fs.settle(1, jobs.JobResult{Result: &rt.Result{}})
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestTenantIsolation(t *testing.T) {
	g := newTestGateway(t, Config{Shards: []Shard{newFakeShard()}})
	sr, _ := submit(t, g, "alice", `{"iterations": 1}`)
	if w := do(t, g, "GET", sr.StatusURL, "mallory", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("cross-tenant status: %d", w.Code)
	}
	if w := do(t, g, "DELETE", sr.StatusURL, "mallory", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("cross-tenant cancel: %d", w.Code)
	}
	if w := do(t, g, "GET", "/v1/jobs/nope", "alice", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", w.Code)
	}
}

func TestCancelInflight(t *testing.T) {
	fs := newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{fs}})
	sr, _ := submit(t, g, "alice", `{"iterations": 1}`)
	w := do(t, g, "DELETE", sr.StatusURL, "alice", "", nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("cancel code = %d", w.Code)
	}
	if got := fs.canceledIDs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("shard cancels = %v", got)
	}
	fs.settle(1, jobs.JobResult{Err: jobs.ErrCanceled})
	waitInflight(t, g, 0)
	var jv JobView
	do(t, g, "GET", sr.StatusURL, "alice", "", &jv)
	if jv.State != "canceled" {
		t.Fatalf("view = %+v", jv)
	}
	if st := g.Status(); st.JobsCanceled != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestRouterAffinityAndSpill(t *testing.T) {
	r := newRouter(4)
	// Affinity is deterministic per tenant and spread across shards.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		s := r.affinity(tn)
		if s2 := r.affinity(tn); s2 != s {
			t.Fatalf("affinity(%s) unstable: %d vs %d", tn, s, s2)
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 tenants landed on %d/4 shards", len(seen))
	}

	home := r.affinity("hot")
	if s, ok := r.pick("hot", 0); !ok || s != home {
		t.Fatalf("pick on idle ring = %d,%v want home %d", s, ok, home)
	}
	// A pathologically hot home shard spills to the least loaded.
	for i := 0; i < 20; i++ {
		r.inc(home)
	}
	if s, ok := r.pick("hot", 0); !ok || s == home {
		t.Fatalf("no spill off hot home: %d,%v", s, ok)
	}
	// Bound reached everywhere: shed.
	for i := range r.load {
		for r.load[i].Load() < 20 {
			r.inc(i)
		}
	}
	if _, ok := r.pick("hot", 20); ok {
		t.Fatal("pick admitted past the bound")
	}
}

// TestNewRejectsBadTenantRate: a NaN, infinite or negative rate would
// build a bucket that refuses every submission forever (NaN) or that
// means nothing, so New refuses it; zero and positive rates build.
func TestNewRejectsBadTenantRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{0, true},
		{1e-6, true},
		{500, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
	} {
		g, err := New(Config{Shards: []Shard{newFakeShard()}, TenantRate: tc.rate})
		if (err == nil) != tc.ok {
			t.Errorf("TenantRate %v: err = %v, want ok = %v", tc.rate, err, tc.ok)
		}
		if g != nil {
			g.Close()
		}
	}
}

func TestTenantBucketRefill(t *testing.T) {
	tn := newTenants(10, 1, 0) // 10 tokens/sec, burst 1
	now := time.Now()
	if ok, _ := tn.allow("a", now); !ok {
		t.Fatal("first token denied")
	}
	ok, retry := tn.allow("a", now)
	if ok {
		t.Fatal("dry bucket allowed")
	}
	if retry <= 0 || retry > 110*time.Millisecond {
		t.Fatalf("retry hint = %v, want ~100ms", retry)
	}
	// After one refill interval the bucket has a token again.
	if ok, _ := tn.allow("a", now.Add(100*time.Millisecond)); !ok {
		t.Fatal("refilled token denied")
	}
}

func TestStreamSSE(t *testing.T) {
	fs := newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{fs}, StreamInterval: 2 * time.Millisecond})
	srv := httptest.NewServer(g)
	defer srv.Close()

	sr, _ := submit(t, g, "alice", `{"iterations": 3}`)
	req, _ := http.NewRequest("GET", srv.URL+sr.StreamURL, nil)
	req.Header.Set("X-Fela-Tenant", "alice")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		fs.settle(1, jobs.JobResult{Result: &rt.Result{Losses: []float64{0.3}}})
	}()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	text := string(body)
	if !strings.Contains(text, "event: progress") {
		t.Fatalf("no progress events in %q", text)
	}
	if !strings.Contains(text, "event: done") || !strings.Contains(text, `"state":"done"`) {
		t.Fatalf("no terminal event in %q", text)
	}
}

func TestStreamCloseOnStop(t *testing.T) {
	fs := newFakeShard()
	g := newTestGateway(t, Config{Shards: []Shard{fs}})
	srv := httptest.NewServer(g)
	defer srv.Close()

	sr, _ := submit(t, g, "alice", `{"iterations": 1}`)
	req, _ := http.NewRequest("GET", srv.URL+sr.StreamURL, nil)
	req.Header.Set("X-Fela-Tenant", "alice")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		g.Close()
	}()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "event: close") {
		t.Fatalf("no close event in %q", string(body))
	}
	fs.settle(1, jobs.JobResult{Result: &rt.Result{}}) // let the settle goroutine finish
	waitInflight(t, g, 0)
}

func TestGatewayMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer("gate")
	fs := newFakeShard()
	fs.settleNow = func(int, transport.JobSpec) error { return nil }
	g := newTestGateway(t, Config{Shards: []Shard{fs}, Metrics: reg, Spans: tr, AdmitWait: time.Second})

	submit(t, g, "alice", `{"iterations": 1}`)
	do(t, g, "GET", "/v1/gate", "", "", nil)
	waitInflight(t, g, 0)

	if got := reg.CounterValues(MetricRequests); len(got) == 0 {
		t.Fatal("no request counters recorded")
	}
	settled := reg.CounterValues(MetricSettled)
	if settled[`outcome="ok"`] != 1 {
		t.Fatalf("settled counters = %v", settled)
	}
	spans := tr.Events()
	var root, child bool
	for _, sp := range spans {
		switch sp.Name {
		case "http.submit":
			root = true
		case "gate.job":
			child = true
			if sp.Parent == 0 {
				t.Fatal("gate.job span not linked to its request")
			}
		}
	}
	if !root || !child {
		t.Fatalf("spans missing: root=%v child=%v (%d spans)", root, child, len(spans))
	}
}

// TestGatewayAgainstManagers runs the real stack: two Manager shards
// with in-proc pool workers, jobs flowing through HTTP end to end, under
// two loads. "paced": three tenants submit two jobs each with no edge
// limit, and every submission is admitted. "overload": four tenants
// each submit twenty jobs at twice their TenantRate of 40/s, so the
// edge sheds. Under either, every submission is admitted or shed
// and the gateway's ledger says which; the token bucket admits a tenant
// at most burst + rate × elapsed and at least its first submission;
// every admitted job settles done, nothing stays in flight, and both
// shards complete jobs.
func TestGatewayAgainstManagers(t *testing.T) {
	for _, in := range []struct {
		name               string
		rate               float64
		burst              int
		tenants, perTenant int
	}{
		{name: "paced", tenants: 3, perTenant: 2},
		{name: "overload", rate: 40, burst: 2, tenants: 4, perTenant: 20},
	} {
		t.Run(in.name, func(t *testing.T) {
			const shards = 2
			var backends []Shard
			for i := 0; i < shards; i++ {
				mgr := jobs.NewManager(jobs.Config{Tick: 10 * time.Millisecond})
				t.Cleanup(func() { mgr.Stop(); <-mgr.Done() })
				for w := 0; w < 2; w++ {
					go func() {
						dial := func() (transport.Conn, error) {
							select {
							case <-mgr.Done():
								return nil, fmt.Errorf("pool stopped")
							default:
							}
							a, b := transport.Pair()
							mgr.Admit(b)
							return a, nil
						}
						_, _ = jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
					}()
				}
				backends = append(backends, mgr)
			}
			g := newTestGateway(t, Config{Shards: backends, AdmitWait: time.Millisecond, TenantRate: in.rate, TenantBurst: in.burst})
			srv := httptest.NewServer(g)
			defer srv.Close()

			// The tenants' home shards must cover both shards, or one of
			// them might complete nothing.
			homes := map[int]bool{}
			for tn := 0; tn < in.tenants; tn++ {
				homes[g.router.affinity(fmt.Sprintf("acme-%d", tn))] = true
			}
			if len(homes) != shards {
				t.Fatalf("the tenants' home shards are %v, want all %d", homes, shards)
			}

			type tenantLoad struct {
				ids     []string // admitted jobs
				shed    int
				elapsed time.Duration // first submission sent to last answer read
			}
			loads := make([]tenantLoad, in.tenants)
			var wg sync.WaitGroup
			for tn := range loads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tenant, l := fmt.Sprintf("acme-%d", tn), &loads[tn]
					start := time.Now()
					defer func() { l.elapsed = time.Since(start) }()
					for i := 0; i < in.perTenant; i++ {
						if in.rate > 0 && i > 0 {
							time.Sleep(time.Duration(float64(time.Second) / (2 * in.rate)))
						}
						body := fmt.Sprintf(`{"name": "it-%d-%d", "iterations": 2, "total_batch": 16, "token_batch": 8, "max_workers": 2}`, tn, i)
						req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(body))
						req.Header.Set("X-Fela-Tenant", tenant)
						resp, err := srv.Client().Do(req)
						if err != nil {
							t.Errorf("%s submit %d: %v", tenant, i, err)
							return
						}
						// A fast job may settle inside AdmitWait and come back as a 200
						// JobView ("id") instead of a 202 SubmitResponse ("job").
						var ack struct {
							Job string `json:"job"`
							ID  string `json:"id"`
						}
						err = json.NewDecoder(resp.Body).Decode(&ack)
						resp.Body.Close()
						switch {
						case resp.StatusCode == http.StatusTooManyRequests:
							l.shed++
						case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
							t.Errorf("%s submit %d: code %d", tenant, i, resp.StatusCode)
						case err != nil || ack.Job+ack.ID == "":
							t.Errorf("%s submit %d: no job id in the response (%v)", tenant, i, err)
						default:
							l.ids = append(l.ids, ack.Job+ack.ID)
						}
					}
				}()
			}
			wg.Wait()
			waitInflight(t, g, 0)

			st := g.Status()
			admitted, shed := 0, 0
			for tn, l := range loads {
				tenant := fmt.Sprintf("acme-%d", tn)
				admitted += len(l.ids)
				shed += l.shed
				if len(l.ids) == 0 {
					t.Errorf("%s: nothing admitted of %d submissions", tenant, in.perTenant)
				}
				if in.rate == 0 && l.shed != 0 {
					t.Errorf("%s: %d submissions shed with no edge limit", tenant, l.shed)
				}
				if bound := float64(in.burst) + in.rate*l.elapsed.Seconds(); in.rate > 0 && float64(len(l.ids)) > bound {
					t.Errorf("%s: %d admitted in %v, over the bucket's %.1f", tenant, len(l.ids), l.elapsed, bound)
				}
				for _, ts := range st.Tenants {
					if ts.Tenant == tenant && (ts.Admitted != int64(len(l.ids)) || ts.Shed != int64(l.shed)) {
						t.Errorf("%s: gateway counts %d admitted and %d shed, the client %d and %d",
							tenant, ts.Admitted, ts.Shed, len(l.ids), l.shed)
					}
				}
				for _, id := range l.ids {
					var jv JobView
					w := do(t, g, "GET", "/v1/jobs/"+id, tenant, "", &jv)
					if w.Code != http.StatusOK || jv.State != "done" || jv.FinalLoss == nil {
						t.Fatalf("job %s: code %d view %+v", id, w.Code, jv)
					}
				}
			}
			if admitted+shed != in.tenants*in.perTenant || st.Submitted != int64(admitted) ||
				st.ShedRateLimited+st.ShedQuotaExceeded+st.ShedQueueFull+st.ShedDraining != int64(shed) {
				t.Errorf("%d offered, %d admitted and %d shed; gateway status %+v", in.tenants*in.perTenant, admitted, shed, st)
			}
			if st.Settled != st.Submitted || st.JobsOK != int64(admitted) {
				t.Fatalf("status = %+v, want all %d admitted jobs settled ok", st, admitted)
			}
			t.Logf("%d admitted, %d shed", admitted, shed)
			// The shards' snapshots are publish-throttled; poll briefly.
			deadline := time.Now().Add(2 * time.Second)
			for {
				var completed []int
				total := 0
				for _, b := range backends {
					c := 0
					if ps := b.Status(); ps != nil {
						c = ps.Completed
					}
					completed = append(completed, c)
					total += c
				}
				if total == admitted && !slices.Contains(completed, 0) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("shards completed %v jobs, want %d in all, each shard some", completed, admitted)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

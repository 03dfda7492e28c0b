// Package gate is Fela's serving edge: an HTTP/JSON gateway that
// fronts one or more jobs.Manager shards with per-tenant admission
// control and bounded backpressure, so millions of user requests meet
// the cluster through one hardened surface instead of the raw wire
// protocol.
//
// Routes (tenant identity travels in the X-Fela-Tenant header; absent
// means the shared "anon" tenant):
//
//	POST   /v1/jobs             submit a job (JSON spec), 202 + job id
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel (idempotent)
//	GET    /v1/jobs/{id}/stream live progress as Server-Sent Events
//	GET    /v1/gate             gateway snapshot (shards, tenants, sheds)
//	GET    /healthz             liveness (503 while draining)
//
// Admission is tiered, cheapest first, and every refusal is shed at the
// edge before any Manager sees the request:
//
//  1. per-tenant token bucket — over-rate submits get 429 with a
//     Retry-After derived from the bucket's refill;
//  2. per-tenant quota — a cap on admitted-but-unsettled jobs, 429;
//  3. bounded queue — a per-shard in-flight cap, 429 once the
//     least-loaded shard is full.
//
// A submission that clears the edge can still be refused by the
// scheduler's own online admission policy (OASiS, jobs.ErrRejected);
// that verdict maps to 422 so clients can distinguish "back off and
// retry" (429) from "this job doesn't fit, retrying won't help" (422).
//
// Routing is consistent-hash tenant affinity with a least-loaded spill
// (see router). Every admitted submission is tracked until its shard
// delivers exactly one terminal JobResult — the settle path closes the
// record's done channel once, releases the tenant's quota slot and the
// shard's load, and ends the job's span, so no request is ever lost
// unsettled.
package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fela/internal/jobs"
	"fela/internal/obs"
	"fela/internal/transport"
)

// Shard is the scheduling backend the gateway routes to — jobs.Manager
// satisfies it directly; tests substitute scripted fakes.
type Shard interface {
	// SubmitJob enqueues a job and returns its shard-scoped id plus the
	// channel that delivers its single terminal result.
	SubmitJob(spec transport.JobSpec, opts jobs.SubmitOptions) (int, <-chan jobs.JobResult, error)
	// Cancel requests a job's termination (idempotent).
	Cancel(id int)
	// Status returns the shard's latest pool snapshot (nil before the
	// first publish).
	Status() *jobs.PoolStatus
}

// Config configures a Gateway.
type Config struct {
	// Shards are the scheduling backends (at least one).
	Shards []Shard
	// TenantRate is each tenant's sustained submit budget in
	// submissions/sec (0 = unlimited; NaN, infinite or negative is
	// refused); TenantBurst is the bucket depth (default
	// ceil(TenantRate), min 1).
	TenantRate  float64
	TenantBurst int
	// TenantQuota caps one tenant's admitted-but-unsettled jobs
	// (0 = unlimited).
	TenantQuota int
	// QueueBound caps in-flight jobs per shard; once the least-loaded
	// shard is at the bound, submissions shed with 429 (0 = unbounded).
	QueueBound int
	// AdmitWait is how long a submit handler lingers for an immediate
	// scheduler verdict, so an OASiS rejection surfaces as a synchronous
	// 422 instead of a 202 that later reads "rejected" (default 25ms).
	AdmitWait time.Duration
	// StreamInterval paces SSE progress events (default 100ms).
	StreamInterval time.Duration
	// Metrics receives fela_gate_* telemetry; Spans records a span per
	// mutating request plus one span covering each job's gateway
	// lifetime (admitted → settled). Both may be nil.
	Metrics *obs.Registry
	Spans   *obs.Tracer
	// Flight, when set, receives the edge's protocol events (submit,
	// shed, settle). Nil records into the process-global ring.
	Flight *obs.FlightRecorder
	// SLOObjective is the per-tenant attainment objective the burn-rate
	// view measures against. Default 0.99.
	SLOObjective float64
}

// Gateway is the HTTP serving edge. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Gateway struct {
	cfg     Config
	mux     *http.ServeMux
	tenants *tenants
	router  *router
	tele    *telemetry
	flight  *obs.FlightRecorder
	start   time.Time

	nextID   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once

	// outcome accounting for the status page (atomics: written on the
	// settle path, read by status polls).
	submitted     atomic.Int64
	settledCount  atomic.Int64
	shedRate      atomic.Int64
	shedQuota     atomic.Int64
	shedQueue     atomic.Int64
	shedDraining  atomic.Int64
	doneOK        atomic.Int64
	doneFailed    atomic.Int64
	doneCanceled  atomic.Int64
	schedRejected atomic.Int64

	mu   sync.Mutex
	jobs map[string]*gateJob

	// caches holds one lazily rebuilt id→JobStatus index per shard, so
	// hot status polls cost a pointer compare instead of an O(jobs)
	// snapshot scan (see shardJob).
	caches []atomic.Pointer[shardCache]
}

// gateJob is the gateway's record of one admitted submission.
type gateJob struct {
	id        string
	tenant    string
	shard     int
	shardJob  int
	spec      transport.JobSpec
	slo       time.Duration
	submitted time.Time
	span      *obs.Span

	// done closes exactly once, after result/settled are written — the
	// happens-before edge every reader relies on.
	done    chan struct{}
	result  jobs.JobResult
	settled time.Time
}

// New builds a Gateway over the given shards.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("gate: at least one shard required")
	}
	if r := cfg.TenantRate; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return nil, fmt.Errorf("gate: tenant rate %v must be finite and non-negative", r)
	}
	if cfg.AdmitWait <= 0 {
		cfg.AdmitWait = 25 * time.Millisecond
	}
	if cfg.StreamInterval <= 0 {
		cfg.StreamInterval = 100 * time.Millisecond
	}
	if cfg.SLOObjective <= 0 || cfg.SLOObjective >= 1 {
		cfg.SLOObjective = 0.99
	}
	g := &Gateway{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		tenants: newTenants(cfg.TenantRate, cfg.TenantBurst, cfg.TenantQuota),
		router:  newRouter(len(cfg.Shards)),
		tele:    newTelemetry(cfg.Metrics),
		flight:  obs.FlightOr(cfg.Flight),
		start:   time.Now(),
		stop:    make(chan struct{}),
		jobs:    map[string]*gateJob{},
		caches:  make([]atomic.Pointer[shardCache], len(cfg.Shards)),
	}
	g.mux.HandleFunc("POST /v1/jobs", g.handle("submit", true, g.handleSubmit))
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handle("status", false, g.handleStatus))
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handle("cancel", true, g.handleCancel))
	g.mux.HandleFunc("GET /v1/jobs/{id}/stream", g.handle("stream", true, g.handleStream))
	g.mux.HandleFunc("GET /v1/gate", g.handle("gate", false, g.handleGate))
	g.mux.HandleFunc("GET /healthz", g.handle("healthz", false, g.handleHealthz))
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// StartDrain flips the gateway into draining: submissions shed with
// 503, everything already admitted keeps running. Idempotent.
func (g *Gateway) StartDrain() { g.draining.Store(true) }

// Drain begins (or continues) draining and blocks until every admitted
// job has settled or ctx expires, returning ctx.Err in the latter case.
func (g *Gateway) Drain(ctx context.Context) error {
	g.StartDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if g.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close force-ends live SSE streams (each sends a final "close" event).
// Call after Drain, or at a hard stop. Idempotent.
func (g *Gateway) Close() { g.stopOnce.Do(func() { close(g.stop) }) }

// Inflight is the number of admitted-but-unsettled jobs.
func (g *Gateway) Inflight() int64 { return g.inflight.Load() }

// ---------------------------------------------------------------------
// request plumbing

// spanCtxKey carries the request's root span context so the submit
// handler can hang the job-lifetime span off it.
type spanCtxKey struct{}

// codeWriter captures the response status for telemetry and forwards
// Flush for SSE.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *codeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle wraps a route with latency/code telemetry and, for mutating
// routes, a root span. The hot status path records no span — at
// serving rates the tracer's buffer mutex would become the bottleneck.
func (g *Gateway) handle(route string, spanned bool, fn http.HandlerFunc) http.HandlerFunc {
	hist := g.tele.latency(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &codeWriter{ResponseWriter: w}
		var spanCtx obs.SpanContext
		if spanned && g.cfg.Spans != nil {
			sp := g.cfg.Spans.StartRoot("http."+route, 0)
			spanCtx = sp.Context()
			r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx))
			defer func() {
				if cw.code >= 500 {
					sp.SetError()
				}
				sp.End()
			}()
		}
		fn(cw, r)
		if cw.code == 0 {
			cw.code = http.StatusOK
		}
		// The worst request in each latency bucket carries its trace id
		// out as an exemplar, so a tail spike on the dashboard links
		// straight to a retained trace.
		hist.ObserveExemplar(time.Since(start).Seconds(), spanCtx)
		g.tele.request(route, cw.code)
	}
}

// tenantOf extracts the caller's tenant; absent means the shared pool.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Fela-Tenant"); t != "" {
		return t
	}
	return "anon"
}

type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func httpError(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, errBody{Error: msg, Code: kind})
}

// shed refuses a submission at the edge: 429 (or 503 while draining)
// with a Retry-After hint, counted per reason and per tenant.
func (g *Gateway) shed(w http.ResponseWriter, tenant, reason string, code int, retry time.Duration) {
	switch reason {
	case "rate_limited":
		g.shedRate.Add(1)
	case "quota_exceeded":
		g.shedQuota.Add(1)
	case "queue_full":
		g.shedQueue.Add(1)
	case "draining":
		g.shedDraining.Add(1)
	}
	g.tele.shed(reason, tenant)
	g.tenants.markShed(tenant, time.Now())
	ev := obs.Evt("gate", "shed")
	ev.Tenant = tenant
	ev.Detail = reason
	g.flight.Record(ev)
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, code, reason, "submission shed at the edge: "+reason)
}

// ---------------------------------------------------------------------
// submit

// SubmitRequest is the POST /v1/jobs body. Zero fields take the same
// defaults as every other submission surface (jobs.NormalizeSpec).
type SubmitRequest struct {
	Name       string  `json:"name"`
	Model      string  `json:"model"`
	Seed       int64   `json:"seed"`
	Iterations int     `json:"iterations"`
	TotalBatch int     `json:"total_batch"`
	TokenBatch int     `json:"token_batch"`
	LR         float32 `json:"lr"`
	Momentum   float32 `json:"momentum"`
	MinWorkers int     `json:"min_workers"`
	MaxWorkers int     `json:"max_workers"`
	Priority   int     `json:"priority"`
	// SLOSeconds is the completion-latency target admission policies
	// reason over (0 = none).
	SLOSeconds float64 `json:"slo_seconds"`
}

func (r SubmitRequest) spec() (transport.JobSpec, time.Duration) {
	return transport.JobSpec{
		Name: r.Name, Model: r.Model, Seed: r.Seed,
		Iterations: r.Iterations, TotalBatch: r.TotalBatch, TokenBatch: r.TokenBatch,
		LR: r.LR, Momentum: r.Momentum,
		MinWorkers: r.MinWorkers, MaxWorkers: r.MaxWorkers, Priority: r.Priority,
	}, time.Duration(r.SLOSeconds * float64(time.Second))
}

// SubmitResponse acknowledges an admitted submission.
type SubmitResponse struct {
	Job       string `json:"job"`
	Shard     int    `json:"shard"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	now := time.Now()
	if g.draining.Load() {
		g.shed(w, tenant, "draining", http.StatusServiceUnavailable, time.Second)
		return
	}
	if ok, retry := g.tenants.allow(tenant, now); !ok {
		g.shed(w, tenant, "rate_limited", http.StatusTooManyRequests, retry)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "decoding body: "+err.Error())
		return
	}
	spec, slo := req.spec()
	spec, err := jobs.NormalizeSpec(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid_spec", err.Error())
		return
	}
	if !g.tenants.acquire(tenant, now) {
		g.shed(w, tenant, "quota_exceeded", http.StatusTooManyRequests, time.Second)
		return
	}
	shard, ok := g.router.pick(tenant, g.cfg.QueueBound)
	if !ok {
		g.tenants.release(tenant)
		g.shed(w, tenant, "queue_full", http.StatusTooManyRequests, time.Second)
		return
	}
	g.router.inc(shard)
	shardJob, ch, err := g.cfg.Shards[shard].SubmitJob(spec, jobs.SubmitOptions{SLO: slo})
	if err != nil {
		g.router.dec(shard)
		g.tenants.release(tenant)
		httpError(w, http.StatusServiceUnavailable, "shard_unavailable", err.Error())
		return
	}
	rec := &gateJob{
		id:     "j-" + strconv.FormatInt(g.nextID.Add(1), 10),
		tenant: tenant, shard: shard, shardJob: shardJob,
		spec: spec, slo: slo, submitted: now,
		done: make(chan struct{}),
	}
	if parent, ok := r.Context().Value(spanCtxKey{}).(obs.SpanContext); ok {
		rec.span = g.cfg.Spans.StartChild("gate.job", shard, parent)
	}
	g.mu.Lock()
	g.jobs[rec.id] = rec
	g.mu.Unlock()
	g.inflight.Add(1)
	g.submitted.Add(1)
	g.tele.admitted(tenant, shard)
	g.tenants.markAdmitted(tenant, now)
	ev := obs.Evt("gate", "submit")
	ev.Job = shardJob
	ev.Tenant = tenant
	ev.Trace = rec.span.Context().TraceHex()
	ev.Detail = fmt.Sprintf("id=%s shard=%d", rec.id, shard)
	g.flight.Record(ev)
	go g.settle(rec, ch)

	// Linger briefly for an immediate scheduler verdict: an OASiS
	// rejection settles on the manager loop's next turn, and answering
	// it synchronously (422 vs 429) is the whole point of the tiering.
	wait := time.NewTimer(g.cfg.AdmitWait)
	defer wait.Stop()
	select {
	case <-rec.done:
		if errors.Is(rec.result.Err, jobs.ErrRejected) {
			writeJSON(w, http.StatusUnprocessableEntity, errBody{
				Error: rec.result.Err.Error(), Code: "scheduler_rejected",
			})
			return
		}
		writeJSON(w, http.StatusOK, g.view(rec))
	case <-wait.C:
		w.Header().Set("Location", "/v1/jobs/"+rec.id)
		writeJSON(w, http.StatusAccepted, SubmitResponse{
			Job: rec.id, Shard: shard,
			StatusURL: "/v1/jobs/" + rec.id,
			StreamURL: "/v1/jobs/" + rec.id + "/stream",
		})
	}
}

// settle consumes the job's single terminal result and releases every
// resource the submission reserved. It is the only writer of
// rec.result and the only closer of rec.done. The in-flight count drops
// last, once the span has ended, so Inflight() == 0 (what Drain waits
// for) means every settlement's counters, SLO burn, flight event and
// span are in place.
func (g *Gateway) settle(rec *gateJob, ch <-chan jobs.JobResult) {
	res := <-ch
	rec.result = res
	rec.settled = time.Now()
	close(rec.done)
	g.router.dec(rec.shard)
	g.tenants.release(rec.tenant)
	g.settledCount.Add(1)
	outcome := "ok"
	switch {
	case errors.Is(res.Err, jobs.ErrRejected):
		outcome = "rejected"
		g.schedRejected.Add(1)
	case errors.Is(res.Err, jobs.ErrCanceled):
		outcome = "canceled"
		g.doneCanceled.Add(1)
	case res.Err != nil:
		outcome = "failed"
		g.doneFailed.Add(1)
	default:
		g.doneOK.Add(1)
	}
	g.tele.settled(outcome, rec.shard)
	// Per-tenant SLO attainment: the tenant's clock runs from gateway
	// admission to settlement; a job without an SLO only needs to finish
	// OK. Cancellations are the tenant's own choice and burn nothing.
	if outcome != "canceled" {
		sloOK := res.Err == nil &&
			(rec.slo == 0 || rec.settled.Sub(rec.submitted) <= rec.slo)
		g.tenants.observeSLO(rec.tenant, sloOK, rec.settled)
		if !sloOK {
			// Keep the whole trace: an SLO miss or failure is exactly
			// the request the tail tracer exists for.
			if rec.span != nil {
				g.cfg.Spans.Retain(rec.span.Context().TraceID)
			}
			if res.Err != nil {
				rec.span.SetError()
			}
		}
	}
	ev := obs.Evt("gate", "settle")
	ev.Job = rec.shardJob
	ev.Tenant = rec.tenant
	ev.Trace = rec.span.Context().TraceHex()
	ev.Detail = fmt.Sprintf("id=%s outcome=%s", rec.id, outcome)
	g.flight.Record(ev)
	rec.span.End()
	g.inflight.Add(-1)
}

// ---------------------------------------------------------------------
// status / cancel / stream

// JobView is the client-facing state of one job.
type JobView struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Shard  int    `json:"shard"`
	// State is queued, running, done, failed, canceled or rejected.
	State string `json:"state"`
	// Iteration is the last completed iteration, -1 before the first.
	Iteration  int `json:"iteration"`
	Iterations int `json:"iterations"`
	// QueueWaitSeconds / RuntimeSeconds mirror the manager's view while
	// running and the terminal result once settled.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RuntimeSeconds   float64 `json:"runtime_seconds"`
	// FinalLoss is set once a job completes successfully.
	FinalLoss *float64 `json:"final_loss,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// terminalState classifies a settled result.
func terminalState(res jobs.JobResult) string {
	switch {
	case errors.Is(res.Err, jobs.ErrRejected):
		return "rejected"
	case errors.Is(res.Err, jobs.ErrCanceled):
		return "canceled"
	case res.Err != nil:
		return "failed"
	default:
		return "done"
	}
}

// shardCache indexes one shard's published snapshot by job id; it is
// rebuilt only when the shard publishes a new snapshot (pointer
// compare), so a million status polls against a 20ms publish throttle
// cost one map read each, not an O(jobs) scan.
type shardCache struct {
	src  *jobs.PoolStatus
	byID map[int]jobs.JobStatus
}

func (g *Gateway) shardJob(shard, id int) (jobs.JobStatus, bool) {
	st := g.cfg.Shards[shard].Status()
	if st == nil {
		return jobs.JobStatus{}, false
	}
	c := g.caches[shard].Load()
	if c == nil || c.src != st {
		byID := make(map[int]jobs.JobStatus, len(st.Jobs))
		for _, js := range st.Jobs {
			byID[js.ID] = js
		}
		c = &shardCache{src: st, byID: byID}
		g.caches[shard].Store(c) // racing rebuilds are identical; last wins
	}
	js, ok := c.byID[id]
	return js, ok
}

// view renders a job's current state: terminal truth from the settled
// result, live truth from the shard's snapshot, else still queued.
func (g *Gateway) view(rec *gateJob) JobView {
	v := JobView{
		ID: rec.id, Tenant: rec.tenant, Shard: rec.shard,
		Iteration: -1, Iterations: rec.spec.Iterations,
	}
	select {
	case <-rec.done:
		res := rec.result
		v.State = terminalState(res)
		v.QueueWaitSeconds = res.QueueWait.Seconds()
		v.RuntimeSeconds = res.Runtime.Seconds()
		if res.Err != nil {
			v.Error = res.Err.Error()
		} else if res.Result != nil {
			v.Iteration = rec.spec.Iterations - 1
			if n := len(res.Result.Losses); n > 0 {
				loss := res.Result.Losses[n-1]
				v.FinalLoss = &loss
			}
		}
	default:
		if js, ok := g.shardJob(rec.shard, rec.shardJob); ok {
			v.State = js.State
			v.Iteration = js.Iter
			v.QueueWaitSeconds = js.QueueWaitSeconds
			v.RuntimeSeconds = js.RuntimeSeconds
		} else {
			// Between SubmitJob and the shard's next snapshot publish.
			v.State = "queued"
			v.QueueWaitSeconds = time.Since(rec.submitted).Seconds()
		}
	}
	return v
}

// lookup resolves {id} for the requesting tenant; a job belonging to a
// different tenant reads as absent rather than forbidden.
func (g *Gateway) lookup(w http.ResponseWriter, r *http.Request) *gateJob {
	id := r.PathValue("id")
	g.mu.Lock()
	rec := g.jobs[id]
	g.mu.Unlock()
	if rec == nil || rec.tenant != tenantOf(r) {
		httpError(w, http.StatusNotFound, "not_found", "unknown job "+id)
		return nil
	}
	return rec
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := g.lookup(w, r)
	if rec == nil {
		return
	}
	writeJSON(w, http.StatusOK, g.view(rec))
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := g.lookup(w, r)
	if rec == nil {
		return
	}
	select {
	case <-rec.done:
		// Already terminal: cancellation is a no-op, report the outcome.
		writeJSON(w, http.StatusOK, g.view(rec))
	default:
		g.cfg.Shards[rec.shard].Cancel(rec.shardJob)
		writeJSON(w, http.StatusAccepted, map[string]string{"job": rec.id, "state": "canceling"})
	}
}

func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	rec := g.lookup(w, r)
	if rec == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "no_flush", "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	g.tele.streams.Add(1)
	defer g.tele.streams.Add(-1)

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send("progress", g.view(rec)) {
		return
	}
	tick := time.NewTicker(g.cfg.StreamInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-rec.done:
			send("done", g.view(rec))
			return
		case <-g.stop:
			// Hard stop with the job still in flight: report the last
			// known state without claiming it is terminal.
			send("close", g.view(rec))
			return
		case <-tick.C:
			if !send("progress", g.view(rec)) {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------
// gateway status

// ShardView summarizes one shard for the status page.
type ShardView struct {
	Shard int `json:"shard"`
	// Inflight is the gateway's in-flight job count for this shard (the
	// quantity QueueBound bounds).
	Inflight int64 `json:"inflight"`
	// The remaining fields mirror the shard's own snapshot.
	Workers   int `json:"workers"`
	Idle      int `json:"idle"`
	Running   int `json:"running"`
	Queued    int `json:"queued"`
	Completed int `json:"completed"`
	// Admission ledger: the shard's admission policy ("" = admit all),
	// how many submissions it refused, and its accepted-but-unfinished
	// token backlog — the inputs the OASiS policies price queue time by.
	Admission     string `json:"admission,omitempty"`
	Rejected      int    `json:"rejected,omitempty"`
	BacklogTokens int    `json:"backlog_tokens,omitempty"`
	// SLOBurn5m / SLOBurn1h are the shard pool's burn rates.
	SLOBurn5m float64 `json:"slo_burn_5m"`
	SLOBurn1h float64 `json:"slo_burn_1h"`
}

// Status is the /v1/gate (and /statusz) snapshot.
type Status struct {
	Role     string `json:"role"` // always "gateway"
	Draining bool   `json:"draining,omitempty"`
	// Submitted counts submissions admitted at the edge; Settled those
	// that reached a terminal state; Inflight the difference.
	Submitted int64 `json:"submitted"`
	Settled   int64 `json:"settled"`
	Inflight  int64 `json:"inflight"`
	// Shed breaks out edge refusals by tier; SchedulerRejected counts
	// admitted jobs the scheduler's own admission policy refused (422s).
	ShedRateLimited   int64 `json:"shed_rate_limited,omitempty"`
	ShedQuotaExceeded int64 `json:"shed_quota_exceeded,omitempty"`
	ShedQueueFull     int64 `json:"shed_queue_full,omitempty"`
	ShedDraining      int64 `json:"shed_draining,omitempty"`
	SchedulerRejected int64 `json:"scheduler_rejected,omitempty"`
	// Terminal outcomes of settled jobs.
	JobsOK       int64 `json:"jobs_ok"`
	JobsFailed   int64 `json:"jobs_failed,omitempty"`
	JobsCanceled int64 `json:"jobs_canceled,omitempty"`
	// SLOObjective is the attainment target the per-tenant burn rates
	// (in Tenants) measure against.
	SLOObjective float64 `json:"slo_objective"`

	Shards        []ShardView    `json:"shards"`
	Tenants       []TenantStatus `json:"tenants,omitempty"`
	UptimeSeconds float64        `json:"uptime_seconds"`
}

// Status snapshots the gateway. Each snapshot also refreshes the
// per-tenant fela_gate_slo_burn_rate gauges, so any /statusz or
// /v1/gate poll keeps the scraped burn view current.
func (g *Gateway) Status() *Status {
	now := time.Now()
	st := &Status{
		Role:              "gateway",
		Draining:          g.draining.Load(),
		Submitted:         g.submitted.Load(),
		Settled:           g.settledCount.Load(),
		Inflight:          g.inflight.Load(),
		ShedRateLimited:   g.shedRate.Load(),
		ShedQuotaExceeded: g.shedQuota.Load(),
		ShedQueueFull:     g.shedQueue.Load(),
		ShedDraining:      g.shedDraining.Load(),
		SchedulerRejected: g.schedRejected.Load(),
		JobsOK:            g.doneOK.Load(),
		JobsFailed:        g.doneFailed.Load(),
		JobsCanceled:      g.doneCanceled.Load(),
		SLOObjective:      g.cfg.SLOObjective,
		Tenants:           g.tenants.snapshot(g.cfg.SLOObjective, now),
		UptimeSeconds:     time.Since(g.start).Seconds(),
	}
	for _, ts := range st.Tenants {
		g.tele.burn(ts.Tenant, ts.SLOBurn5m, ts.SLOBurn1h)
	}
	for i, s := range g.cfg.Shards {
		sv := ShardView{Shard: i, Inflight: g.router.loadOf(i)}
		if ps := s.Status(); ps != nil {
			sv.Workers, sv.Idle = ps.Workers, ps.Idle
			sv.Running, sv.Queued, sv.Completed = ps.Running, ps.Queued, ps.Completed
			sv.Admission, sv.Rejected, sv.BacklogTokens = ps.Admission, ps.Rejected, ps.BacklogTokens
			sv.SLOBurn5m, sv.SLOBurn1h = ps.SLOBurn5m, ps.SLOBurn1h
		}
		st.Shards = append(st.Shards, sv)
	}
	return st
}

// StatusAny adapts Status to the obs.Handler statusFn signature.
func (g *Gateway) StatusAny() any { return g.Status() }

func (g *Gateway) handleGate(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Status())
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining", "gateway is draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	w.Write([]byte("ok\n"))
}

package rt

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// TestStatusJSONRoundTrip: the /statusz payload must survive
// marshal→unmarshal intact — it is the wire contract for dashboards and
// the e2e test's scrape assertions.
func TestStatusJSONRoundTrip(t *testing.T) {
	in := Status{
		Role:           "coordinator",
		Iter:           7,
		Iterations:     12,
		LiveWorkers:    []int{0, 2, 5},
		Draining:       []int{2},
		PendingJoins:   1,
		TokensByWorker: map[int]int{0: 40, 2: 31, 5: 25},
		TokenRate:      map[int]float64{0: 123.5, 2: 88.25, 5: 60},
		StragglerScore: map[int]float64{0: 0, 2: 0.285, 5: 0.514},
		Steals:         3,
		Reassigned:     1,
		RecentFaults:   []metrics.FaultEvent{{Time: 3.5, Worker: 9, Iter: 4, Phase: "iteration", Class: "timeout"}},
		RecentScales:   []metrics.ScaleEvent{{Time: 4.5, Iter: 5, Worker: 5, Kind: "join"}},
		UptimeSeconds:  41.5,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Status
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the snapshot:\n in: %+v\nout: %+v", in, out)
	}
}

func TestWorkerStatusJSONRoundTrip(t *testing.T) {
	in := WorkerStatus{
		Role: "worker", WID: 3, Iter: 9, TokensTrained: 72,
		LastComputeSeconds: 0.0025, LastFetchSeconds: 0.0004,
		Draining: true, UptimeSeconds: 12.75,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out WorkerStatus
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the snapshot:\n in: %+v\nout: %+v", in, out)
	}
}

// TestSessionTelemetry runs a real in-process session with telemetry on
// and checks the registry, the status snapshots, and the span buffer all
// reflect what actually happened.
func TestSessionTelemetry(t *testing.T) {
	cfg := baseCfg()
	cfg.Metrics = obs.NewRegistry()
	cfg.Spans = obs.NewTracer("test")

	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if co.Status() == nil {
		t.Fatal("coordinator status must be published from construction")
	}

	serverConns := make([]transport.Conn, cfg.Workers)
	workers := make([]*Worker, cfg.Workers)
	errs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		w := NewWorker(wid, mlp(), blobs(), cfg)
		workers[wid] = w
		go func() { errs <- w.Run(client) }()
	}
	res, err := co.Run(serverConns)
	requireClean(t, res, err)
	for range workers {
		if werr := <-errs; werr != nil {
			t.Fatal(werr)
		}
	}

	tokens := cfg.Iterations * (cfg.TotalBatch / cfg.TokenBatch)

	// Registry: token counters across workers sum to the session total.
	var counted int64
	for _, v := range cfg.Metrics.CounterValues(MetricTokensTotal) {
		counted += v
	}
	if counted != int64(tokens) {
		t.Errorf("%s sums to %d, want %d", MetricTokensTotal, counted, tokens)
	}
	if got := cfg.Metrics.Histogram(MetricTokenSeconds, nil).Count(); got != int64(tokens) {
		t.Errorf("%s count = %d, want %d", MetricTokenSeconds, got, tokens)
	}
	if got := cfg.Metrics.Histogram(MetricIterSeconds, nil).Count(); got != int64(cfg.Iterations) {
		t.Errorf("%s count = %d, want %d", MetricIterSeconds, got, cfg.Iterations)
	}
	if rates := cfg.Metrics.GaugeValues(MetricWorkerRate); len(rates) != cfg.Workers {
		t.Errorf("%s has %d series, want %d: %v", MetricWorkerRate, len(rates), cfg.Workers, rates)
	}
	// Transport counters saw traffic in both directions.
	var bytes int64
	for _, v := range cfg.Metrics.CounterValues(transport.MetricBytes) {
		bytes += v
	}
	if bytes == 0 {
		t.Errorf("%s recorded no traffic", transport.MetricBytes)
	}

	// Coordinator snapshot after the run.
	st := co.Status()
	if st.Iter != cfg.Iterations-1 || st.Iterations != cfg.Iterations {
		t.Errorf("status iteration = %d/%d, want %d/%d", st.Iter, st.Iterations, cfg.Iterations-1, cfg.Iterations)
	}
	if len(st.LiveWorkers) != cfg.Workers {
		t.Errorf("status live workers = %v, want %d ids", st.LiveWorkers, cfg.Workers)
	}
	var statusTokens int
	for _, n := range st.TokensByWorker {
		statusTokens += n
	}
	if statusTokens != tokens {
		t.Errorf("status tokens = %d, want %d", statusTokens, tokens)
	}
	if st.Steals != res.Steals {
		t.Errorf("status steals = %d, result says %d", st.Steals, res.Steals)
	}
	if st.UptimeSeconds <= 0 {
		t.Error("status uptime must be positive")
	}

	// /statusz serves a worker's snapshot, and 503 for a nil worker
	// (felaworker before registration).
	if code, _ := statusz((*Worker)(nil).StatusAny); code != http.StatusServiceUnavailable {
		t.Errorf("/statusz of a nil worker = %d, want 503", code)
	}
	var served WorkerStatus
	if code, body := statusz(workers[0].StatusAny); code != http.StatusOK || json.Unmarshal(body, &served) != nil ||
		!reflect.DeepEqual(&served, workers[0].Status()) {
		t.Errorf("/statusz = %d %s, want worker 0's snapshot %+v", code, body, workers[0].Status())
	}

	// Worker snapshots.
	for wid, w := range workers {
		ws := w.Status()
		if ws == nil {
			t.Fatalf("worker %d has no status", wid)
		}
		if ws.WID != wid || ws.Iter != cfg.Iterations-1 {
			t.Errorf("worker %d status = %+v", wid, ws)
		}
		if ws.TokensTrained != st.TokensByWorker[wid] {
			t.Errorf("worker %d trained %d tokens, coordinator saw %d", wid, ws.TokensTrained, st.TokensByWorker[wid])
		}
	}

	// Spans: every iteration a root, every token a round-trip child, and
	// the workers' compute spans joined those traces via the wire context.
	byName := map[string]int{}
	iterTraces := map[uint64]bool{}
	for _, ev := range cfg.Spans.Events() {
		byName[ev.Name]++
		if ev.Name == "iteration" {
			iterTraces[ev.Ctx.TraceID] = true
		}
	}
	if byName["iteration"] != cfg.Iterations {
		t.Errorf("iteration spans = %d, want %d", byName["iteration"], cfg.Iterations)
	}
	if byName["token-roundtrip"] != tokens {
		t.Errorf("token-roundtrip spans = %d, want %d", byName["token-roundtrip"], tokens)
	}
	if byName["compute"] != tokens {
		t.Errorf("compute spans = %d, want %d", byName["compute"], tokens)
	}
	for _, ev := range cfg.Spans.Events() {
		if ev.Name == "compute" && !iterTraces[ev.Ctx.TraceID] {
			t.Fatalf("compute span %016x not part of any iteration trace", ev.Ctx.TraceID)
		}
	}

	// Telemetry must not perturb training.
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		t.Fatal("instrumented run diverged from sequential reference")
	}
}

// statusz returns the obs handler's /statusz response code and body.
func statusz(status func() any) (int, []byte) {
	rec := httptest.NewRecorder()
	obs.NewHandler(obs.HandlerOptions{Status: status}).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	return rec.Code, rec.Body.Bytes()
}

// TestTelemetryOffIsHarmless: the default config (no registry, no
// tracer) must run exactly as before — the nil-safe no-op path.
func TestTelemetryOffIsHarmless(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 2
	res, err := Train(mlp, blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		t.Fatal("uninstrumented run diverged from sequential reference")
	}
}

// TestStatusReflectsStraggler: with one delayed worker the published
// straggler scores must rank the slow worker strictly above the fast
// ones — the live Eq. 4 signal the re-tuner consumes.
func TestStatusReflectsStraggler(t *testing.T) {
	cfg := baseCfg()
	cfg.Iterations = 8
	cfg.Metrics = obs.NewRegistry()
	cfg.Delay = func(iter, wid int) time.Duration {
		if wid == 0 {
			return 5 * time.Millisecond
		}
		return 0
	}

	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	serverConns := make([]transport.Conn, cfg.Workers)
	errs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { errs <- w.Run(client) }()
	}
	res, err := co.Run(serverConns)
	requireClean(t, res, err)
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-errs; werr != nil {
			t.Fatal(werr)
		}
	}

	st := co.Status()
	if len(st.StragglerScore) != cfg.Workers || len(st.TokenRate) != cfg.Workers {
		t.Fatalf("rates %v scores %v, want %d entries each", st.TokenRate, st.StragglerScore, cfg.Workers)
	}
	// The delayed worker must lag the field; the fastest scores 0 by
	// construction. (Other workers may tie the delayed one at score ~1
	// when stealing starves them, so only worker 0's lag is asserted.)
	if st.StragglerScore[0] <= 0 {
		t.Errorf("delayed worker 0 score = %v, want > 0 (scores %v)", st.StragglerScore[0], st.StragglerScore)
	}
	var fastest bool
	for _, s := range st.StragglerScore {
		if s == 0 {
			fastest = true
		}
	}
	if !fastest {
		t.Errorf("no worker scored 0: %v", st.StragglerScore)
	}
	var max float64
	for _, r := range st.TokenRate {
		if r > max {
			max = r
		}
	}
	if st.TokenRate[0] >= max {
		t.Errorf("delayed worker 0 rate %v is not below the max %v", st.TokenRate[0], max)
	}
}

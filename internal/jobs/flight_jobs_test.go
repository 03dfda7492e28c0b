package jobs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"fela/internal/obs"
	"fela/internal/transport"
)

// TestManagerFlightAndBurn drives one job through the pool with a
// private flight ring and checks the manager's protocol history —
// submit, job.start, job.done with matching job id — plus the SLO burn
// accounting: a clean run burns nothing, a blown SLO shows up in the
// burn gauges and the /statusz snapshot.
func TestManagerFlightAndBurn(t *testing.T) {
	cfg := testConfig(FairShare{})
	cfg.Flight = obs.NewFlightRecorder(1 << 10)
	m := NewManager(cfg)
	wait := startPool(t, m, 2, PoolWorkerOptions{})
	waitIdle(t, m, 2)

	// Job 1: no SLO, finishes OK — attainment good, burn stays 0.
	ch, err := m.Submit(transport.JobSpec{Name: "clean", Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitResult(t, ch, "clean")
	if res.Err != nil {
		t.Fatalf("clean job failed: %v", res.Err)
	}

	events := cfg.Flight.Snapshot(0)
	byEvent := map[string][]obs.FlightEvent{}
	for _, ev := range events {
		byEvent[ev.Event] = append(byEvent[ev.Event], ev)
	}
	for _, want := range []string{"submit", "job.start", "job.done"} {
		evs := byEvent[want]
		if len(evs) != 1 {
			t.Fatalf("%s events = %d, want 1 (all: %+v)", want, len(evs), events)
		}
		if evs[0].Job != res.ID {
			t.Errorf("%s event job = %d, want %d", want, evs[0].Job, res.ID)
		}
		if evs[0].Comp != "jobs" {
			t.Errorf("%s event comp = %q, want jobs", want, evs[0].Comp)
		}
	}
	if d := byEvent["job.done"][0].Detail; d != "outcome=ok iters=4" {
		t.Errorf("job.done detail = %q", d)
	}

	st := pollStatus(t, m, func(st *PoolStatus) bool { return st.Completed == 1 })
	if st.SLOBurn5m != 0 || st.SLOBurn1h != 0 {
		t.Fatalf("burn after clean job = %v / %v, want 0", st.SLOBurn5m, st.SLOBurn1h)
	}
	if st.SLOObjective != defaultSLOObjective {
		t.Fatalf("objective = %v, want default %v", st.SLOObjective, defaultSLOObjective)
	}

	// Job 2: an SLO of 1ns is unmeetable — the job finishes OK but
	// misses its target, which must burn error budget.
	_, ch2, err := m.SubmitJob(transport.JobSpec{Name: "blown", Seed: 2, Iterations: 4}, SubmitOptions{SLO: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res2 := awaitResult(t, ch2, "blown"); res2.Err != nil {
		t.Fatalf("blown job failed: %v", res2.Err)
	}
	st = pollStatus(t, m, func(st *PoolStatus) bool { return st.SLOBurn5m > 0 })
	// 1 miss in 2 settled jobs: fraction 0.5, budget 0.01 → burn 50.
	if st.SLOBurn5m < 40 || st.SLOBurn5m > 60 {
		t.Fatalf("5m burn = %v, want ≈50", st.SLOBurn5m)
	}
	if st.SLOBurn1h <= 0 {
		t.Fatalf("1h burn = %v, want > 0", st.SLOBurn1h)
	}
	if g := cfg.Metrics.Gauge(MetricSLOBurn, "window", "5m").Value(); g != st.SLOBurn5m {
		t.Fatalf("burn gauge = %v, status = %v", g, st.SLOBurn5m)
	}
	// The obs handler serves the snapshot through StatusAny.
	rec := httptest.NewRecorder()
	obs.NewHandler(obs.HandlerOptions{Status: m.StatusAny}).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	var served PoolStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || served.Completed != 2 || served.SLOBurn5m <= 0 {
		t.Fatalf("/statusz served %s (%v), want 2 completed and a burn", rec.Body.Bytes(), err)
	}

	stopAndWait(t, m, wait)
}

// TestManagerFlightReject checks admission rejections land in the
// flight ring with the policy's reason and burn SLO budget.
func TestManagerFlightReject(t *testing.T) {
	cfg := testConfig(FairShare{})
	cfg.Flight = obs.NewFlightRecorder(1 << 8)
	cfg.Admission = rejectAll{}
	m := NewManager(cfg)

	ch, err := m.Submit(transport.JobSpec{Name: "doomed", Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitResult(t, ch, "doomed")
	if !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", res.Err)
	}

	var rej *obs.FlightEvent
	for _, ev := range cfg.Flight.Snapshot(0) {
		if ev.Event == "reject" {
			e := ev
			rej = &e
		}
	}
	if rej == nil {
		t.Fatal("no reject event in flight ring")
	}
	if rej.Detail == "" || rej.Job != res.ID {
		t.Fatalf("malformed reject event: %+v", rej)
	}

	st := pollStatus(t, m, func(st *PoolStatus) bool { return st.SLOBurn5m > 0 })
	if st.SLOBurn5m <= 0 {
		t.Fatalf("rejection did not burn budget: %+v", st)
	}
	stopAndWait(t, m, func() {})
}

// pollStatus waits for a /statusz snapshot satisfying ok.
func pollStatus(t *testing.T, m *Manager, ok func(*PoolStatus) bool) *PoolStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Status(); st != nil && ok(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("status never converged (last: %+v)", m.Status())
	return nil
}

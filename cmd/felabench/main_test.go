package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fela/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	ctx := experiments.Quick()
	for _, which := range []string{"table1", "table2", "fig1", "fig5"} {
		if err := run(ctx, which, benchPaths{}, true); err != nil {
			t.Errorf("%s: %v", which, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(experiments.Quick(), "fig99", benchPaths{}, true); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	ctx := experiments.Quick()
	if err := run(ctx, "fig8", benchPaths{csvDir: dir}, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
	if string(data[:5]) != "model" {
		t.Errorf("CSV header wrong: %q", data[:20])
	}
}

func TestClusterBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster bench replays a 100-job trace; skipped in -short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_cluster.json")
	if err := run(experiments.Quick(), "cluster", benchPaths{cluster: path}, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report clusterBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_cluster.json does not parse: %v", err)
	}
	if report.Name != "cluster" || !report.Quick {
		t.Errorf("report header = %+v", report)
	}
	want := map[string]bool{
		"fair-share": false, "priority": false,
		"throughput-max": false, "oasis": false,
	}
	for _, e := range report.Entries {
		if _, ok := want[e.Policy]; !ok {
			t.Errorf("unexpected policy %q", e.Policy)
			continue
		}
		want[e.Policy] = true
		if e.Submitted != report.TraceJobs {
			t.Errorf("%s: %d submitted, want the whole %d-job trace", e.Policy, e.Submitted, report.TraceJobs)
		}
		if e.Admitted != e.Completed+e.Failed || e.Admitted+e.Rejected != e.Submitted {
			t.Errorf("%s: inconsistent counts: %+v", e.Policy, e)
		}
		if e.Policy == "oasis" {
			if e.Admission != "oasis" {
				t.Errorf("oasis entry missing its admission gate: %+v", e)
			}
		} else if e.Rejected != 0 {
			t.Errorf("%s: rejected %d jobs with no admission gate", e.Policy, e.Rejected)
		}
		if e.MakespanSeconds <= 0 || e.Completed == 0 {
			t.Errorf("%s: degenerate run: %+v", e.Policy, e)
		}
		if e.SampleSize == 0 || !e.SampleBitIdentical {
			t.Errorf("%s: bit-identity spot-check failed: size=%d ok=%v",
				e.Policy, e.SampleSize, e.SampleBitIdentical)
		}
	}
	for policy, seen := range want {
		if !seen {
			t.Errorf("policy %q missing from report", policy)
		}
	}
}

func TestJobsBenchJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_jobs.json")
	if err := run(experiments.Quick(), "jobs", benchPaths{jobs: path}, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report jobsBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_jobs.json does not parse: %v", err)
	}
	if report.Name != "jobs-manager" || !report.Quick {
		t.Errorf("report header = %+v", report)
	}
	want := map[string]bool{
		"sequential": false, "fair-share": false,
		"priority": false, "throughput-max": false,
	}
	for _, e := range report.Entries {
		if _, ok := want[e.Policy]; !ok {
			t.Errorf("unexpected policy %q", e.Policy)
			continue
		}
		want[e.Policy] = true
		if e.MakespanSeconds <= 0 || e.AggTokensPerSec <= 0 {
			t.Errorf("%s: non-positive throughput: %+v", e.Policy, e)
		}
		if e.Fairness <= 0 || e.Fairness > 1.0001 {
			t.Errorf("%s: fairness index %v out of (0,1]", e.Policy, e.Fairness)
		}
		if len(e.Jobs) != 2 {
			t.Errorf("%s: %d jobs in entry, want 2", e.Policy, len(e.Jobs))
		}
		for _, j := range e.Jobs {
			if !j.BitIdentical {
				t.Errorf("%s: job %s not bit-identical to solo training", e.Policy, j.Name)
			}
			if j.WorkerIters <= 0 {
				t.Errorf("%s: job %s consumed no worker-iterations", e.Policy, j.Name)
			}
		}
	}
	for policy, seen := range want {
		if !seen {
			t.Errorf("policy %q missing from report", policy)
		}
	}
}

// TestGateBenchJSON runs the serving-gateway benchmark end to end (it
// is the slowest test here: a million requests through the gateway) and
// checks the acceptance invariants on the machine-readable report.
func TestGateBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("gate bench pushes 1e6 requests; skipped with -short")
	}
	if raceEnabled {
		t.Skip("gate bench asserts latency bounds; meaningless under the race detector (the gateway's race coverage is TestGateHammer)")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_gate.json")
	if err := run(experiments.Quick(), "gate", benchPaths{gate: path}, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report gateBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_gate.json does not parse: %v", err)
	}
	if report.Name != "gate" || !report.Quick {
		t.Errorf("report header = %+v", report)
	}
	if report.TotalRequests < gateTargetRequests {
		t.Errorf("total requests %d below the %d floor", report.TotalRequests, int64(gateTargetRequests))
	}
	if report.Shards < 2 || len(report.ShardCompleted) != report.Shards {
		t.Errorf("want >=2 shards with completions, got %+v", report.ShardCompleted)
	}
	for i, c := range report.ShardCompleted {
		if c <= 0 {
			t.Errorf("shard %d completed no jobs", i)
		}
	}
	// At 2x overload the edge must shed a substantial share of offered
	// submissions while keeping admitted-submit latency bounded.
	if report.ShedRate < 0.25 {
		t.Errorf("shed rate %.3f at %.1fx overload; the edge is not shedding", report.ShedRate, report.OverloadFactor)
	}
	if report.Submit.P99Ms <= 0 || report.Submit.P99Ms > 1000 {
		t.Errorf("admitted submit p99 %.2fms not bounded", report.Submit.P99Ms)
	}
	if report.Unsettled != 0 {
		t.Errorf("%d admitted submissions never settled", report.Unsettled)
	}
	if report.SubmitAdmitted+report.SubmitShed != report.SubmitOffered {
		t.Errorf("edge ledger does not sum: %+v", report)
	}
	if report.Fairness < 0.9 {
		t.Errorf("Jain fairness %.4f under uniform offered load", report.Fairness)
	}
}

func TestDurableBenchJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_durable.json")
	if err := run(experiments.Quick(), "durable", benchPaths{durable: path}, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report durableBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_durable.json does not parse: %v", err)
	}
	if report.Name != "durable-plane" || !report.Quick {
		t.Errorf("report header = %+v", report)
	}
	if len(report.Overheads) == 0 {
		t.Fatal("no overhead entries")
	}
	sawDefault := false
	for _, e := range report.Overheads {
		if e.Checkpoints <= 0 || e.Seconds <= 0 || e.BaselineSeconds <= 0 {
			t.Errorf("overhead entry %+v has empty measurements", e)
		}
		if e.Pairs != 1 {
			t.Errorf("overhead entry %+v: -quick runs one pair", e)
		}
		if !(e.OverheadQ1Pct <= e.OverheadPct && e.OverheadPct <= e.OverheadQ3Pct) {
			t.Errorf("overhead entry %+v: median outside its quartiles", e)
		}
		if e.Every == 10 {
			sawDefault = true
		}
	}
	if !sawDefault {
		t.Error("no overhead entry at the default checkpoint interval")
	}
	if len(report.Recovery) != 3 {
		t.Fatalf("recovery entries = %d, want 3", len(report.Recovery))
	}
	last := 0
	for _, e := range report.Recovery {
		if e.Params <= last {
			t.Errorf("recovery %s: params %d not increasing (prev %d)", e.Model, e.Params, last)
		}
		last = e.Params
		if e.TotalMS <= 0 {
			t.Errorf("recovery %s: total %vms, want > 0", e.Model, e.TotalMS)
		}
	}
	if r := report.Replay; r.Entries <= 0 || r.AppendPerSec <= 0 || r.ReplayPerSec <= 0 || r.FoldMS <= 0 {
		t.Errorf("replay = %+v, want positive throughput and fold time", report.Replay)
	}
}

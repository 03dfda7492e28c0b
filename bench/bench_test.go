package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

const smokeScale = 0.01

// smokeSized is w with one token per worker in an iteration and, for
// train-topk, a hidden layer a sixteenth as wide (selecting the top
// eighth of 1M gradients takes 80 ms a token). At smokeScale a session is
// already down to two iterations, and the tokens of train-compute and
// train-comm cost 10 to 20 ms each; the harness takes the same paths
// whatever an iteration holds.
func smokeSized(w *workload) *workload {
	c := *w
	if !c.serve {
		c.totalBatch = workers * c.tokenBatch
	}
	if c.name == "train-topk" {
		c.newNet = func(seed int64) *minidnn.Network { return minidnn.NewMLP(seed, 1024, 64, 16) }
	}
	return &c
}

// benchmarkJSON is BENCHMARK.json as seen from this directory.
var benchmarkJSON = filepath.Join("..", benchmarkPath)

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the tables the
// runner emits from: same workloads, same metrics, same units and
// directions, each name once, and a bound the contract allows on every
// end-to-end metric.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadBounds(benchmarkJSON); err != nil {
		t.Error(err)
	}
	if f.RunSeconds != baseSeconds {
		t.Errorf("run_seconds %d, counts are sized for %d", f.RunSeconds, baseSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		once(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), runner has %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the runner", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		once(d.name)
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, runner %+v", i, g, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the runner", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		once(d.name)
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, runner %+v", i, g, d)
		}
	}
}

// applies reports whether a per-layer metric has a value on a workload:
// serving metrics only on serve-jobs, rt and wire-traffic metrics only
// on training sessions, the rest everywhere.
func applies(metric string, w *workload) bool {
	switch metric {
	case "jobs_per_s", "job_ms_p50", "job_ms_p99", "status_ms_p50",
		"jobs.submit_to_settle_ms_p50", "jobs.queue_wait_ms_p50", "jobs.runtime_ms_p50",
		"jobs.leases_per_job", "jobs.rebalances_per_job", "jobs.training_share",
		"gate.overhead_ms_p50", "gate.status_read_us_p50":
		return w.serve
	case "transport.report_bytes_per_iter", "transport.iterstart_bytes_per_iter", "transport.msgs_per_iter",
		"transport.report_send_ms_p50", "transport.iterstart_send_ms_p50",
		"rt.request_to_assign_us_p50", "rt.worker_compute_ms_p50", "rt.barrier_ms_p50",
		"rt.worker_idle_share", "rt.token_imbalance", "rt.compute_share":
		return !w.serve
	case "rt.sched_efficiency":
		return w.tokenDelay > 0
	case "loss_delta":
		return w.compress != transport.CompressExact
	case "tensor.kernel_par_calls", "tensor.kernel_util":
		return w.name == "train-compute" || w.name == "train-comm" // smokeSized train-topk stays under the parallel cutoff
	case "fail_ratio", "rt.steals_per_iter", "runtime.gc_pause_ms_total", "obs.trace_overhead_pct", "obs.budget_gap_pct":
		return false // legitimately zero or of either sign
	}
	return true
}

// TestSmoke runs all six workloads at a hundredth of their length, both
// ways, and checks that every metric BENCHMARK.json names comes out
// once, finite, with its unit, and non-zero where it applies; that every
// run is correct; and that the exact counts repeat on a second traced
// session.
func TestSmoke(t *testing.T) {
	here, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // traces land in ./bench/out
		t.Fatal(err)
	}
	defer os.Chdir(here)
	for _, w := range workloads {
		w = smokeSized(w)
		var layer result
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			o, err := runWorkload(w, 1, smokeScale, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := render(io.Discard, w, o, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, o.notes)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d defined", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is not finite", w.name, d.name)
				case m.Value == 0 && (!traced || applies(d.name, w)):
					t.Errorf("%s: metric %s is zero", w.name, d.name)
				}
			}
			layer = res
		}
		if w.serve {
			continue // its exact counts are the kernel calls, covered by the sessions above
		}
		iters, _ := cut(w.iters, smokeScale, 2, segments)
		again, err := runTrain(w, 1, iters, true)
		if err != nil {
			t.Fatal(err)
		}
		v := map[string]float64{}
		traceMetrics(w, again, v, map[string]int{})
		for _, d := range perLayer {
			if d.exact && d.src == "T" && layer.Metrics[d.name].Value != v[d.name] {
				t.Errorf("%s: count %s does not repeat: %v then %v", w.name, d.name, layer.Metrics[d.name].Value, v[d.name])
			}
		}
	}
}

// TestTracedConnKeepsBroadcast pins the wrapper's forwarding: a wrapped
// train-comm session still encodes each iteration's iter-start exactly
// once for its two workers, and stays bit-identical to Sequential.
func TestTracedConnKeepsBroadcast(t *testing.T) {
	w := smokeSized(workloadByName("train-comm"))
	const iters = 3
	run, err := runTrain(w, 1, iters, true)
	if err != nil {
		t.Fatal(err)
	}
	encodes := counter(run.coordReg, transport.MetricCodecOps,
		"op", "encode", "codec", transport.CodecBinary, "kind", transport.KindIterStart.String())
	if encodes != iters {
		t.Errorf("%d iter-start encodes for %d iterations: the wrapper lost the encode-once broadcast", encodes, iters)
	}
	decodes := counter(run.workerReg, transport.MetricCodecOps,
		"op", "decode", "codec", transport.CodecBinary, "kind", transport.KindIterStart.String())
	if decodes != iters*workers {
		t.Errorf("%d iter-start decodes, want %d", decodes, iters*workers)
	}
	ref, err := w.reference(1, iters)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(run.res.Params, ref.Params) {
		t.Error("wrapped session is not bit-identical to rt.Sequential")
	}
	if got := len(run.trace.iterSendNS); got != iters {
		t.Errorf("wrapper saw %d iterations of iter-start sends, want %d", got, iters)
	}
}

// TestCompareVerdicts feeds -compare two synthetic sets.
func TestCompareVerdicts(t *testing.T) {
	mk := func(tokens float64) *runSet {
		s := &runSet{Env: environment{Seed: 1, Scale: 1, Seconds: 10, NProc: 2, GOMAXPROCS: 2}, Workloads: map[string]*workloadSet{}}
		for _, w := range workloads {
			ws := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}, Attempted: 1}
			for _, d := range endToEnd {
				ws.EndToEnd[d.name] = []float64{100, 101, 102}
			}
			ws.EndToEnd["tokens_per_s"] = []float64{tokens, tokens * 1.01, tokens * 1.02}
			s.Workloads[w.name] = ws
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *runSet) string {
		body, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bounds, err := loadBounds(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	a := write("a.json", mk(1000))
	if ok, err := compareSets(io.Discard, bounds, a, write("same.json", mk(1000))); err != nil || !ok {
		t.Errorf("equal sets: ok=%v err=%v", ok, err)
	}
	if ok, err := compareSets(io.Discard, bounds, a, write("slow.json", mk(600))); err != nil || ok {
		t.Errorf("two fifths slower: ok=%v err=%v, want a regression", ok, err)
	}
	other := mk(1000)
	other.Env.Seed = 2
	if _, err := compareSets(io.Discard, bounds, a, write("seed.json", other)); err == nil {
		t.Error("sets with different seeds compared")
	}
}

package main

import (
	"fmt"
	"sort"

	"fela/internal/jobs"
	"fela/internal/obs"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// A --trace 1 invocation runs the layer pass, one discarded warm-up,
// then tracePairs pairs of sessions, each a segment long: untraced, then
// traced. Every metric is the median over all sessions of its kind. The
// tracing overhead is the median over the pairs of how much slower the
// traced session ran than the untraced one beside it; the serving and
// convergence results that apply to one workload only come from the
// untraced sessions.

// traceOverheadMax is the tracing overhead, in percent of the untraced
// rate, above which the budget a traced run prints is suspect.
const traceOverheadMax = 10

// pairedOverhead is the median over the pairs of (untraced - traced) /
// untraced, in percent. Pairing sessions that ran back to back keeps a
// slow minute of the box out of the difference.
func pairedOverhead(plain, traced []float64) float64 {
	var pct []float64
	for i := range plain {
		pct = append(pct, 100*(plain[i]-traced[i])/plain[i])
	}
	return median(pct)
}

// overheadGate records a failed gate when tracing cost too much.
func (o *outcome) overheadGate() {
	if pct := o.values["obs.trace_overhead_pct"]; pct > traceOverheadMax {
		o.gates = append(o.gates, fmt.Sprintf("tracing overhead %.1f %% above %d %%: the budget is suspect", pct, traceOverheadMax))
	}
}

// middle returns the index of the median of xs (the upper one of two).
func middle(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[len(idx)/2]
}

// medians reduces per-session metric maps to their per-name medians.
func medians(sessions []map[string]float64, into map[string]float64) {
	for name := range sessions[0] {
		var xs []float64
		for _, s := range sessions {
			xs = append(xs, s[name])
		}
		into[name] = median(xs)
	}
}

func trainTraced(w *workload, seed int64, scale float64) (*outcome, error) {
	o := newOutcome()
	v := o.values
	if err := layerPass(w, seed, newLayerTimer(scale), v); err != nil {
		return nil, err
	}
	iters, sessions := cut(w.iters, scale, 2, segments)
	pairs := min(tracePairs, sessions)
	ref, err := w.reference(seed, iters)
	if err != nil {
		return nil, err
	}
	if _, err := runTrain(w, seed, iters, false); err != nil {
		return nil, err
	}
	var (
		plainRate, tracedRate, plainGap []float64
		perSession                      []map[string]float64
		tracedRuns                      []*trainRun
		plain, traced                   *trainRun
	)
	for pair := 0; pair < pairs; pair++ {
		if plain, err = runTrain(w, seed, iters, false); err != nil {
			return nil, err
		}
		if traced, err = runTrain(w, seed, iters, true); err != nil {
			return nil, err
		}
		o.attempted += 2 * iters * w.tokensPerIter()
		o.fail(plain.check(w, ref))
		o.fail(traced.check(w, ref))
		if !samePrefix(plain.res.Losses, traced.res.Losses) {
			o.fail(1, []string{"the traced session's loss history differs from the untraced one's"})
		}
		plainRate = append(plainRate, plain.tokensPerSec(w))
		tracedRate = append(tracedRate, traced.tokensPerSec(w))
		plainGap = append(plainGap, median(plain.iterGap))
		m := map[string]float64{}
		traceMetrics(w, traced, m, o.samples)
		perSession = append(perSession, m)
		tracedRuns = append(tracedRuns, traced)
	}
	medians(perSession, v)
	if w.compress != transport.CompressExact {
		v["loss_delta"] = plain.lossDelta(ref)
	}
	v["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	v["obs.trace_overhead_pct"] = pairedOverhead(plainRate, tracedRate)

	// The budget, from the traced session of median rate: the workers'
	// time in the median iteration, per token and by slice, against what
	// the untraced sessions say a token costs.
	tr := tracedRuns[middle(tracedRate)].trace
	mid := tr.medianIteration()
	perToken := func(ns int64) float64 { return float64(ns) / 1e6 / float64(w.tokensPerIter()) }
	untraced := median(plainGap) * workers / float64(w.tokensPerIter())
	v["obs.budget_gap_pct"] = 100 * abs64(perToken(mid.wall)-untraced) / untraced
	o.budget = append(o.budget, fmt.Sprintf("  token-life budget of the median iteration, worker ms per token (untraced iter_ms_p50 x workers / tokens per iter = %.4g):", untraced))
	for s, name := range sliceNames {
		o.budget = append(o.budget, fmt.Sprintf("    %-26s %10.4g ms  %5.1f %%   whole run %5.1f %%", name, perToken(mid.slices[s]),
			100*float64(mid.slices[s])/float64(mid.wall), 100*float64(tr.total.slices[s])/float64(tr.total.wall)))
	}
	o.budget = append(o.budget, fmt.Sprintf("    %-26s %10.4g ms", "sum", perToken(mid.wall)))
	o.budget = append(o.budget, fmt.Sprintf("    both workers wait out the coordinator's share of the barrier: rt.barrier %.4g ms and transport.iterstart_send %.4g ms per iteration",
		v["rt.barrier_ms_p50"], v["transport.iterstart_send_ms_p50"]))

	// What the workload was built to stress, on the commit that defined
	// it. A failed gate means the workload needs resizing.
	if share := v["rt.compute_share"]; share < w.minCompute || (w.maxCompute > 0 && share > w.maxCompute) {
		o.gates = append(o.gates, fmt.Sprintf("design intent: compute share %.2f outside [%.2f, %.2f]", share, w.minCompute, w.maxCompute))
	}
	o.overheadGate()
	if err := tr.log.write(w.name, seed); err != nil {
		return nil, err
	}
	return o, nil
}

// traceMetrics derives the per-layer metrics a traced session yields by
// itself: wrapper stamps, codec counters, kernel and memory statistics.
func traceMetrics(w *workload, traced *trainRun, v map[string]float64, samples map[string]int) {
	tokens := traced.iters * w.tokensPerIter()
	tr := traced.trace
	nIter := float64(traced.iters)
	kernelMetrics(v, traced.kernels, tokens)
	wire := func(op string) float64 {
		return float64(counter(traced.workerReg, transport.MetricCodecBytes, "op", op, "codec", transport.CodecBinary))
	}
	v["transport.report_bytes_per_iter"] = wire("encode") / nIter
	v["transport.iterstart_bytes_per_iter"] = wire("decode") / nIter
	v["transport.msgs_per_iter"] = float64(tr.workerEvents) / nIter
	v["transport.report_send_ms_p50"] = median(millis(tr.reportSendNS))
	v["transport.iterstart_send_ms_p50"] = median(millis(tr.iterSendNS))
	v["rt.request_to_assign_us_p50"] = median(millis(tr.reqToAssignNS)) * 1000
	v["rt.worker_compute_ms_p50"] = median(millis(tr.computeNS))
	v["rt.barrier_ms_p50"] = median(millis(tr.barrierNS))
	samples["transport.report_send_ms_p50"] = len(tr.reportSendNS)
	samples["transport.iterstart_send_ms_p50"] = len(tr.iterSendNS)
	samples["rt.request_to_assign_us_p50"] = len(tr.reqToAssignNS)
	samples["rt.worker_compute_ms_p50"] = len(tr.computeNS)
	samples["rt.barrier_ms_p50"] = len(tr.barrierNS)
	v["rt.worker_idle_share"] = 1 - float64(tr.busyNS)/float64(tr.total.wall)
	v["rt.steals_per_iter"] = float64(traced.res.Steals) / nIter
	lo, hi := traced.res.TokensByWorker[0], traced.res.TokensByWorker[0]
	for _, n := range traced.res.TokensByWorker {
		lo, hi = min(lo, n), max(hi, n)
	}
	v["rt.token_imbalance"] = float64(hi) / float64(max(lo, 1))
	// The analytic ideal iteration: all injected sleep, spread evenly
	// over the workers. Only a workload paced by sleeps has one.
	if ideal := ms(w.tokenDelay)*float64(w.tokensPerIter()) + ms(w.straggle); ideal > 0 {
		v["rt.sched_efficiency"] = ideal / workers / median(traced.iterGap)
	}
	v["rt.compute_share"] = float64(tr.total.slices[sliceCompute]) / float64(tr.total.wall)
	v["runtime.alloc_bytes_per_token"] = float64(traced.allocB) / float64(tokens)
	v["runtime.gc_pause_ms_total"] = float64(traced.gcPauseNS) / 1e6
}

func serveTraced(w *workload, seed int64, scale float64) (*outcome, error) {
	o := newOutcome()
	v := o.values
	in, err := newServeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	if err := layerPass(w, seed, newLayerTimer(scale), v); err != nil {
		return nil, err
	}
	if err := serveLayerPass(w, in, newLayerTimer(scale), v); err != nil {
		return nil, err
	}
	loops, sessions := cut(w.loops, scale, 2, segments)
	pairs := min(tracePairs, sessions)
	if _, err := runServe(in, loops, false, nil); err != nil {
		return nil, err
	}
	// A job's phases come from client-side stamps and the job view, which
	// cost nothing to record, so they are read off the untraced sessions;
	// the traced sessions add the memory statistics. The lease and
	// rebalance counts need an obs.Registry on the manager, which hands it
	// to every job's coordinator and so switches on the system's whole
	// telemetry plane (a tenth to a sixth of jobs_per_s): they come from
	// one more session, which nothing else is read from.
	var (
		plainRate, tracedRate []float64
		perSession            []map[string]float64
		tracedRuns            []*serveRun
	)
	for pair := 0; pair < pairs; pair++ {
		plain, err := runServe(in, loops, false, nil)
		if err != nil {
			return nil, err
		}
		traced, err := runServe(in, loops, true, nil)
		if err != nil {
			return nil, err
		}
		tracedRuns = append(tracedRuns, traced)
		o.attempted += 2 * (plain.jobs() + traced.jobs())
		o.fail(plain.failed, plain.notes)
		o.fail(traced.failed, traced.notes)
		plainRate = append(plainRate, plain.tokensPerSec(w))
		tracedRate = append(tracedRate, traced.tokensPerSec(w))

		job := plain.series(jobMS)
		o.samples["job_ms_p50"] += len(job)
		tokens := traced.jobs() * serveJobIters * w.tokensPerIter()
		m := map[string]float64{
			"jobs_per_s":                    float64(plain.jobs()) / plain.wall.Seconds(),
			"job_ms_p50":                    median(job),
			"job_ms_p99":                    quantile(job, 0.99),
			"status_ms_p50":                 median(plain.series(statusMS)),
			"jobs.queue_wait_ms_p50":        median(plain.series(queueMS)),
			"jobs.runtime_ms_p50":           median(plain.series(runtimeMS)),
			"gate.overhead_ms_p50":          median(plain.series(overheadMS)),
			"runtime.alloc_bytes_per_token": float64(traced.allocB) / float64(tokens),
			"runtime.gc_pause_ms_total":     float64(traced.gcPauseNS) / 1e6,
		}
		kernelMetrics(m, traced.kernels, tokens)
		perSession = append(perSession, m)
	}
	medians(perSession, v)
	o.samples["job_ms_p99"], o.samples["status_ms_p50"] = o.samples["job_ms_p50"], o.samples["job_ms_p50"]

	reg := obs.NewRegistry()
	counted, err := runServe(in, loops, false, reg)
	if err != nil {
		return nil, err
	}
	o.attempted += 2 * counted.jobs()
	o.fail(counted.failed, counted.notes)
	v["jobs.leases_per_job"] = float64(counterSum(reg, jobs.MetricLeases)) / float64(counted.jobs())
	v["jobs.rebalances_per_job"] = float64(counterSum(reg, jobs.MetricRebalances)) / float64(counted.jobs())

	v["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	// Gradient computation's part of a job's latency: the layer pass's
	// forward+backward at the job's token shape, times the job's tokens.
	v["jobs.training_share"] = v["minidnn.fwdbwd_ms"] * float64(serveJobIters*w.tokensPerIter()) / v["job_ms_p50"]
	v["obs.trace_overhead_pct"] = pairedOverhead(plainRate, tracedRate)

	o.budget = append(o.budget, fmt.Sprintf("  job-life budget, median ms per job (job_ms_p50 = %.4g):", v["job_ms_p50"]))
	sum := 0.0
	for _, name := range []string{"jobs.queue_wait_ms_p50", "jobs.runtime_ms_p50", "gate.overhead_ms_p50"} {
		sum += v[name]
		o.budget = append(o.budget, fmt.Sprintf("    %-26s %10.4g ms  %5.1f %%", name, v[name], 100*v[name]/v["job_ms_p50"]))
	}
	o.budget = append(o.budget, fmt.Sprintf("    %-26s %10.4g ms", "sum", sum))
	v["obs.budget_gap_pct"] = 100 * abs64(sum-v["job_ms_p50"]) / v["job_ms_p50"]
	if share := v["jobs.training_share"]; share > w.maxCompute {
		o.gates = append(o.gates, fmt.Sprintf("design intent: training share of job_ms_p50 %.2f above %.2f", share, w.maxCompute))
	}
	o.overheadGate()
	if err := tracedRuns[middle(tracedRate)].spans().write(w.name, seed); err != nil {
		return nil, err
	}
	return o, nil
}

func kernelMetrics(v map[string]float64, k tensor.KernelStats, tokens int) {
	v["tensor.kernel_par_calls"] = float64(k.ParallelCalls) / float64(tokens)
	v["tensor.kernel_serial_calls"] = float64(k.SerialCalls) / float64(tokens)
	if k.WallNanos > 0 {
		v["tensor.kernel_util"] = float64(k.BusyNanos) / (float64(k.WallNanos) * float64(tensor.Parallelism()))
	}
}

func counter(reg *obs.Registry, name string, labels ...string) int64 {
	return reg.Counter(name, labels...).Value()
}

// counterSum adds a counter family over all its label sets.
func counterSum(reg *obs.Registry, name string) int64 {
	var sum int64
	for _, n := range reg.CounterValues(name) {
		sum += n
	}
	return sum
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

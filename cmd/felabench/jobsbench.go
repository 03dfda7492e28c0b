package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/transport"
)

// jobsBenchJob is one job's outcome under one scheduling policy.
type jobsBenchJob struct {
	Name             string  `json:"name"`
	Iterations       int     `json:"iterations"`
	TotalBatch       int     `json:"total_batch"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RuntimeSeconds   float64 `json:"runtime_seconds"`
	// WorkerIters is the job's consumed worker-iterations (live workers
	// summed over its barriers) — the currency of the fairness index.
	WorkerIters  int  `json:"worker_iters"`
	BitIdentical bool `json:"bit_identical"`
}

// jobsBenchEntry is one policy's run of the contention workload.
type jobsBenchEntry struct {
	Policy          string  `json:"policy"`
	PoolWorkers     int     `json:"pool_workers"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	// AggTokensPerSec is total tokens trained across jobs over makespan.
	AggTokensPerSec float64 `json:"agg_tokens_per_sec"`
	// Fairness is the Jain index over per-job worker-iterations:
	// (Σx)²/(n·Σx²), 1.0 = perfectly even, 1/n = maximally skewed.
	Fairness float64        `json:"fairness_index"`
	Jobs     []jobsBenchJob `json:"jobs"`
	// Obs embeds the pool's telemetry snapshot: the rt latency quantiles
	// aggregated across jobs plus the manager's own counters.
	Obs         *rtObsSummary               `json:"obs,omitempty"`
	PoolMetrics map[string]map[string]int64 `json:"pool_metrics,omitempty"`
}

// jobsBenchReport is the machine-readable BENCH_jobs.json payload.
type jobsBenchReport struct {
	Name      string           `json:"name"`
	Quick     bool             `json:"quick"`
	TimeStamp string           `json:"timestamp"`
	Entries   []jobsBenchEntry `json:"entries"`
}

// jobsTokenDelay is the simulated per-token compute cost every pool
// worker injects (rt.Config.TokenDelay). The MLP presets train in
// microseconds, so without it allocation policy cannot move the
// needle; with it, each token costs real wall-clock that overlaps
// across workers, and worker counts parallelize the way they would
// with a heavy model.
const jobsTokenDelay = 500 * time.Microsecond

// jobsWorkload is the skewed two-job contention workload: a large job
// with many tokens per iteration (compute-dominated, scales with
// workers) and a small single-token-per-iteration job that physically
// cannot use more than one worker. Fair-share parks a useless second
// worker on the small job; throughput-max observes its zero marginal
// rate and tilts the pool toward the large job.
func jobsWorkload(quick bool) []transport.JobSpec {
	itersLarge, itersSmall := 80, 400
	if quick {
		itersLarge, itersSmall = 20, 100
	}
	return []transport.JobSpec{
		{Name: "large", Iterations: itersLarge, TotalBatch: 256, TokenBatch: 8, Seed: 0},
		{Name: "small", Iterations: itersSmall, TotalBatch: 8, TokenBatch: 8, Seed: 9, Priority: 1},
	}
}

func jainIndex(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += float64(x)
		sq += float64(x) * float64(x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// runJobsPool runs the workload on a fresh pool of nWorkers in-process
// pool workers under pol. sequential=true submits the jobs one at a
// time (the no-sharing baseline); otherwise they contend.
func runJobsPool(pol jobs.AllocPolicy, nWorkers int, specs []transport.JobSpec, sequential bool) (jobsBenchEntry, error) {
	reg := obs.NewRegistry()
	mgr := jobs.NewManager(jobs.Config{
		Policy:  pol,
		Tick:    20 * time.Millisecond,
		Metrics: reg,
	})
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
	workersDone := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		go func() {
			_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{
				Metrics:    reg,
				TokenDelay: func(int, int) time.Duration { return jobsTokenDelay },
			})
			workersDone <- err
		}()
	}

	entry := jobsBenchEntry{
		Policy:      pol.Name(),
		PoolWorkers: nWorkers,
	}
	if sequential {
		entry.Policy = "sequential"
	}
	fail := func(err error) (jobsBenchEntry, error) {
		mgr.Stop()
		<-mgr.Done()
		return jobsBenchEntry{}, err
	}

	start := time.Now()
	var results []jobs.JobResult
	collect := func(ch <-chan jobs.JobResult) error {
		r := <-ch
		if r.Err != nil {
			return fmt.Errorf("job %s: %w", r.Spec.Name, r.Err)
		}
		results = append(results, r)
		return nil
	}
	if sequential {
		for _, spec := range specs {
			ch, err := mgr.Submit(spec)
			if err != nil {
				return fail(err)
			}
			if err := collect(ch); err != nil {
				return fail(err)
			}
		}
	} else {
		chans := make([]<-chan jobs.JobResult, len(specs))
		for i, spec := range specs {
			ch, err := mgr.Submit(spec)
			if err != nil {
				return fail(err)
			}
			chans[i] = ch
		}
		for _, ch := range chans {
			if err := collect(ch); err != nil {
				return fail(err)
			}
		}
	}
	entry.MakespanSeconds = time.Since(start).Seconds()

	mgr.Stop()
	<-mgr.Done()
	for i := 0; i < nWorkers; i++ {
		if err := <-workersDone; err != nil {
			return jobsBenchEntry{}, fmt.Errorf("pool worker: %w", err)
		}
	}

	totalTokens := 0
	var iters []int
	for _, r := range results {
		ref, err := jobs.Reference(r.Spec)
		if err != nil {
			return jobsBenchEntry{}, err
		}
		entry.Jobs = append(entry.Jobs, jobsBenchJob{
			Name:             r.Spec.Name,
			Iterations:       r.Spec.Iterations,
			TotalBatch:       r.Spec.TotalBatch,
			QueueWaitSeconds: r.QueueWait.Seconds(),
			RuntimeSeconds:   r.Runtime.Seconds(),
			WorkerIters:      r.WorkerIters,
			BitIdentical:     minidnn.ParamsEqual(ref.Params, r.Result.Params),
		})
		totalTokens += r.Spec.Iterations * (r.Spec.TotalBatch / r.Spec.TokenBatch)
		iters = append(iters, r.WorkerIters)
	}
	if entry.MakespanSeconds > 0 {
		entry.AggTokensPerSec = float64(totalTokens) / entry.MakespanSeconds
	}
	entry.Fairness = jainIndex(iters)
	entry.Obs = summarizeObs(reg)
	entry.PoolMetrics = map[string]map[string]int64{}
	for _, name := range []string{
		jobs.MetricCompleted, jobs.MetricLeases, jobs.MetricReleases,
		jobs.MetricReturns, jobs.MetricRebalances,
	} {
		if vals := reg.CounterValues(name); len(vals) > 0 {
			entry.PoolMetrics[name] = vals
		}
	}
	return entry, nil
}

// runJobsBench measures the multi-tenant job manager on the skewed
// two-job contention workload under each allocation policy plus the
// sequential (no-sharing) baseline, and writes BENCH_jobs.json.
func runJobsBench(quick bool, path string, out func(string)) error {
	const nWorkers = 4
	specs := jobsWorkload(quick)

	report := jobsBenchReport{
		Name:      "jobs-manager",
		Quick:     quick,
		TimeStamp: time.Now().UTC().Format(time.RFC3339),
	}

	seq, err := runJobsPool(jobs.FairShare{}, nWorkers, specs, true)
	if err != nil {
		return fmt.Errorf("jobs bench: sequential baseline: %w", err)
	}
	report.Entries = append(report.Entries, seq)

	for _, pol := range []jobs.AllocPolicy{
		jobs.FairShare{}, jobs.Priority{}, &jobs.ThroughputMax{},
	} {
		entry, err := runJobsPool(pol, nWorkers, specs, false)
		if err != nil {
			return fmt.Errorf("jobs bench: %s: %w", pol.Name(), err)
		}
		report.Entries = append(report.Entries, entry)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("jobs bench: %w", err)
	}
	out(renderJobsBench(report, path))
	return nil
}

// renderJobsBench formats the report for the terminal.
func renderJobsBench(r jobsBenchReport, path string) string {
	s := fmt.Sprintf("Multi-tenant job manager, 2-job contention (wrote %s)\n", path)
	s += fmt.Sprintf("%-16s %10s %12s %9s  %-30s %s\n",
		"policy", "makespan", "agg tok/s", "fairness", "per-job runtime", "bit-identical")
	for _, e := range r.Entries {
		runtimes, bits := "", true
		for i, j := range e.Jobs {
			if i > 0 {
				runtimes += "  "
			}
			runtimes += fmt.Sprintf("%s %.2fs", j.Name, j.RuntimeSeconds)
			bits = bits && j.BitIdentical
		}
		s += fmt.Sprintf("%-16s %9.2fs %12.1f %9.3f  %-30s %v\n",
			e.Policy, e.MakespanSeconds, e.AggTokensPerSec, e.Fairness, runtimes, bits)
	}
	return s
}

// histQuantiles condenses one latency histogram for the report.
type histQuantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// rtObsSummary is the telemetry slice embedded per bench entry.
type rtObsSummary struct {
	TokenLatency   histQuantiles    `json:"token_latency_seconds"`
	IterTime       histQuantiles    `json:"iter_time_seconds"`
	BarrierTime    histQuantiles    `json:"barrier_time_seconds"`
	MessagesByKind map[string]int64 `json:"messages_by_kind,omitempty"`
	BytesByKind    map[string]int64 `json:"bytes_by_kind,omitempty"`
}

func quantiles(s obs.HistSnapshot) histQuantiles {
	q := histQuantiles{Count: s.Count, P50: s.Quantile(0.5), P90: s.Quantile(0.9), P99: s.Quantile(0.99)}
	if s.Count > 0 {
		q.Mean = s.Sum / float64(s.Count)
	}
	return q
}

// summarizeObs condenses the registry a bench run recorded into. The
// traffic maps are keyed by the rendered label set (dir/kind).
func summarizeObs(reg *obs.Registry) *rtObsSummary {
	return &rtObsSummary{
		TokenLatency:   quantiles(reg.Histogram(rt.MetricTokenSeconds, nil).Snapshot()),
		IterTime:       quantiles(reg.Histogram(rt.MetricIterSeconds, nil).Snapshot()),
		BarrierTime:    quantiles(reg.Histogram(rt.MetricBarrierSeconds, nil).Snapshot()),
		MessagesByKind: reg.CounterValues(transport.MetricMessages),
		BytesByKind:    reg.CounterValues(transport.MetricBytes),
	}
}

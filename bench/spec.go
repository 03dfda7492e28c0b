package main

import (
	"math"
	"time"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

// Load is sized for a two-core box: every training session has two
// workers, serve-jobs has two closed-loop clients and two pool workers.
const (
	workers       = 2
	serveClients  = 2
	baseSeconds   = 10 // run length the base counts below were sized for
	setupReps     = 5  // set-ups per untraced run; setup_s is their median
	segments      = 15 // sessions the timed work is cut into
	suiteReps     = 5  // untraced runs per workload in a set, seeds seed..seed+4
	tracePairs    = 6  // untraced/traced session pairs of a --trace 1 run
	serveSpecs    = 16 // distinct job specs per run, references precomputed
	serveJobIters = 4
)

// workload is one set of inputs. Work is fixed by operation counts: a
// later A/B runs identical work on both sides. Every iteration trains
// the same rows, so the learning rates are low enough that the loss is
// still falling when the run ends: a model that has memorized its batch
// sends all-zero gradients, which no value-dependent codec sees in use.
type workload struct {
	name string
	why  string

	// Training workloads (serve == false).
	newNet     func(seed int64) *minidnn.Network
	newData    func(seed int64) *minidnn.Dataset
	totalBatch int
	tokenBatch int
	iters      int // at scale 1, over all segments
	lr         float32
	compress   transport.Compression
	tokenDelay time.Duration // injected per-token sleep
	straggle   time.Duration // injected per-iteration sleep on wid == iter%workers

	// Design intent: the share of worker time (serve-jobs: of a job's
	// latency) spent computing gradients must stay in this range, or the
	// workload no longer stresses what it was built to stress. A zero
	// maxCompute means no upper limit.
	minCompute, maxCompute float64

	// serve-jobs.
	serve bool
	loops int // per client, at scale 1, over all segments
}

func (w *workload) tokensPerIter() int { return w.totalBatch / w.tokenBatch }

// cut sizes the timed work: base x scale operations, in equally long
// sessions of at least floor operations each. At scale 1 there are most
// sessions. Shrinking the run shrinks the sessions first, then their
// number; lengthening it adds sessions and leaves their length alone, so
// a session is never longer than the one the gates were sized on.
func cut(base int, scale float64, floor, most int) (perSession, sessions int) {
	total := scaled(base, scale, floor)
	sessions = min(most, max(1, total/floor))
	perSession = total / sessions
	if full := base / most; perSession > full {
		perSession, sessions = full, total/full
	}
	return perSession, sessions
}

// scaled sizes a base count, never below floor.
func scaled(base int, scale float64, floor int) int {
	n := int(math.Round(float64(base) * scale))
	if n < floor {
		n = floor
	}
	return n
}

func commMLP(seed int64) *minidnn.Network    { return minidnn.NewMLP(seed, 1024, 1024, 16) }
func commBlobs(seed int64) *minidnn.Dataset  { return minidnn.SyntheticBlobs(seed, 64, 1024, 16) }
func schedMLP(seed int64) *minidnn.Network   { return minidnn.NewMLP(seed, 16, 32, 4) }
func schedBlobs(seed int64) *minidnn.Dataset { return minidnn.SyntheticBlobs(seed, 256, 16, 4) }
func computeCNN(seed int64) *minidnn.Network { return minidnn.NewCNN(seed, 3, 32, 32, 16, 64, 10) }
func computeImgs(seed int64) *minidnn.Dataset {
	return minidnn.SyntheticImages(seed, 256, 3, 32, 32, 10)
}

var workloads = []*workload{
	{
		name:   "train-compute",
		why:    "CNN on 16-sample tokens: tensor+minidnn do most of the work, so kernel, pool and cutoff changes show here and nowhere else",
		newNet: computeCNN, newData: computeImgs,
		totalBatch: 128, tokenBatch: 16, iters: 75, lr: 3e-4,
		minCompute: 0.70,
	},
	{
		name:   "train-comm",
		why:    "1M-parameter MLP on batch-1 tokens: 4 MB report and iter-start frames make codec, socket copies, broadcast and aggregate the majority",
		newNet: commMLP, newData: commBlobs,
		totalBatch: 16, tokenBatch: 1, iters: 120, lr: 1e-4,
		maxCompute: 0.45,
	},
	{
		name:   "train-topk",
		why:    "train-comm's model under top-k gradient compression: the same transport layer used as select+varint instead of bulk copy, with a convergence price",
		newNet: commMLP, newData: commBlobs,
		// lr is half train-comm's: the loss top-k ends on after a session's
		// four iterations is then 0.03 above Sequential's, inside the 0.05
		// it may be (lossDeltaMax), on every seed tried.
		totalBatch: 4, tokenBatch: 1, iters: 60, lr: 5e-5,
		compress: transport.CompressTopK,
	},
	{
		name:   "train-sched",
		why:    "tiny MLP, 32 two-sample tokens per iteration: request-assign-report round trips, control frames, pick/steal and the barrier dominate",
		newNet: schedMLP, newData: schedBlobs,
		totalBatch: 64, tokenBatch: 2, iters: 12000, lr: 0.05,
		maxCompute: 0.25,
	},
	{
		name:   "train-straggler",
		why:    "sleeps set the pace (2 ms per token, 8 ms round-robin straggler): measures scheduling quality, idle share and steals, not speed",
		newNet: schedMLP, newData: schedBlobs,
		totalBatch: 32, tokenBatch: 2, iters: 500, lr: 0.05,
		tokenDelay: 2 * time.Millisecond, straggle: 8 * time.Millisecond,
	},
	{
		name:  "serve-jobs",
		why:   "two closed-loop tenants submit small jobs through the HTTP gateway and read their status: admission, lease, coordinator start/stop and settle dominate",
		serve: true, loops: 4000,
		// The job spec every loop submits (model preset mlp-small).
		newNet: schedMLP, totalBatch: 64, tokenBatch: 8,
		maxCompute: 0.50,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one metric. BENCHMARK.json repeats name, unit and
// better, and is the only home of the end-to-end bounds (see loadBounds).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// src: L = layer pass (timed direct calls), T = traced sessions,
	// U = the untraced sessions of a --trace 1 run.
	src string
	// exact marks counts that must repeat exactly between two runs with
	// the same seed and scale.
	exact bool
}

// endToEnd is measured with tracing off, on every workload. One "iter"
// is one closed-loop iteration of the workload: a BSP iteration for
// train-*, one client loop (submit, wait for the result, read status)
// for serve-jobs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "tokens_per_s", unit: "1/s", better: "higher"},
	{name: "iter_ms_p50", unit: "ms", better: "lower"},
	{name: "iter_ms_p90", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// stragglerBound is the one per-workload override of BENCHMARK.json's
// bounds: train-straggler is paced by sleeps and repeats to a percent,
// so its speed is held to less than the other workloads'.
const stragglerBound = 0.03

// boundFor is how far a metric may worsen on a workload before -compare
// calls it a regression. bounds comes from BENCHMARK.json.
func boundFor(bounds map[string]float64, metric, workload string) float64 {
	if workload == "train-straggler" && (metric == "tokens_per_s" || metric == "iter_ms_p50") {
		return stragglerBound
	}
	return bounds[metric]
}

var perLayer = []metricDef{
	// Serving and convergence results a user sees on one workload only;
	// the end-to-end list must hold on all six, so they live here,
	// measured with tracing off.
	{name: "jobs_per_s", unit: "1/s", better: "higher", src: "U"},
	{name: "job_ms_p50", unit: "ms", better: "lower", src: "U"},
	{name: "job_ms_p99", unit: "ms", better: "lower", src: "U"},
	{name: "status_ms_p50", unit: "ms", better: "lower", src: "U"},
	{name: "loss_delta", unit: "loss", better: "lower", src: "U", exact: true},
	{name: "fail_ratio", unit: "ratio", better: "lower", src: "U"},

	{name: "tensor.matmul_ms", unit: "ms", better: "lower", src: "L"},
	{name: "tensor.matmul_par_speedup", unit: "ratio", better: "higher", src: "L"},
	{name: "tensor.small_matmul_us", unit: "us", better: "lower", src: "L"},
	{name: "tensor.kernel_par_calls", unit: "1/token", better: "lower", src: "T", exact: true},
	{name: "tensor.kernel_serial_calls", unit: "1/token", better: "lower", src: "T", exact: true},
	{name: "tensor.kernel_util", unit: "ratio", better: "higher", src: "T"},
	{name: "minidnn.fwdbwd_ms", unit: "ms", better: "lower", src: "L"},
	{name: "transport.enc_iterstart_ms", unit: "ms", better: "lower", src: "L"},
	{name: "transport.dec_iterstart_ms", unit: "ms", better: "lower", src: "L"},
	{name: "transport.enc_report_ms", unit: "ms", better: "lower", src: "L"},
	{name: "transport.dec_report_ms", unit: "ms", better: "lower", src: "L"},
	{name: "transport.enc_ctl_ns", unit: "ns", better: "lower", src: "L"},
	{name: "transport.dec_ctl_ns", unit: "ns", better: "lower", src: "L"},
	{name: "transport.report_bytes_per_iter", unit: "B", better: "lower", src: "T", exact: true},
	{name: "transport.iterstart_bytes_per_iter", unit: "B", better: "lower", src: "T", exact: true},
	{name: "transport.msgs_per_iter", unit: "count", better: "lower", src: "T", exact: true},
	{name: "transport.report_send_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "transport.iterstart_send_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "rt.aggregate_ms", unit: "ms", better: "lower", src: "L"},
	{name: "rt.request_to_assign_us_p50", unit: "us", better: "lower", src: "T"},
	{name: "rt.worker_compute_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "rt.barrier_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "rt.worker_idle_share", unit: "ratio", better: "lower", src: "T"},
	{name: "rt.steals_per_iter", unit: "count", better: "higher", src: "T"},
	{name: "rt.token_imbalance", unit: "ratio", better: "lower", src: "T"},
	{name: "rt.sched_efficiency", unit: "ratio", better: "higher", src: "T"},
	{name: "rt.compute_share", unit: "ratio", better: "higher", src: "T"},
	{name: "jobs.submit_to_settle_ms_p50", unit: "ms", better: "lower", src: "L"},
	{name: "jobs.queue_wait_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "jobs.runtime_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "jobs.leases_per_job", unit: "count", better: "lower", src: "T"},
	{name: "jobs.rebalances_per_job", unit: "count", better: "lower", src: "T"},
	{name: "jobs.training_share", unit: "ratio", better: "lower", src: "T"},
	{name: "gate.overhead_ms_p50", unit: "ms", better: "lower", src: "T"},
	{name: "gate.status_read_us_p50", unit: "us", better: "lower", src: "L"},
	{name: "runtime.alloc_bytes_per_token", unit: "B", better: "lower", src: "T"},
	{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower", src: "T"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower", src: "T"},
	{name: "obs.budget_gap_pct", unit: "%", better: "lower", src: "T"},
}

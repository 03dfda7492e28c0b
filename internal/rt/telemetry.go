package rt

import (
	"sort"
	"strconv"
	"time"

	"fela/internal/obs"
)

// Coordinator-side metric names. Worker-side names live in worker.go.
const (
	// MetricTokenSeconds is the assign→report round-trip per token: the
	// live analog of the paper's per-token compute+fetch time. A token
	// queued behind another is timed from that one's report, when the
	// worker starts it.
	MetricTokenSeconds = "fela_rt_token_seconds"
	// MetricIterSeconds is the wall-clock duration of one BSP iteration
	// (the denominator of Eq. 3's live estimate).
	MetricIterSeconds = "fela_rt_iter_seconds"
	// MetricBarrierSeconds is the time spent between the last token
	// report and the next iteration's seeding: the loss sum, the
	// optimizer step, the checkpoint and the membership barrier.
	// Gradients are already aggregated, folded as the reports arrived.
	MetricBarrierSeconds = "fela_rt_barrier_seconds"
	// MetricLiveWorkers gauges the trainable worker count.
	MetricLiveWorkers = "fela_rt_live_workers"
	// MetricIteration gauges the most recently completed iteration.
	MetricIteration = "fela_rt_iteration"
	// MetricTokensTotal counts reported tokens per worker.
	MetricTokensTotal = "fela_rt_tokens_total"
	// MetricStealsTotal counts tokens trained away from their owner.
	MetricStealsTotal = "fela_rt_steals_total"
	// MetricReassignedTotal counts assignments revoked from dead, hung
	// or draining workers.
	MetricReassignedTotal = "fela_rt_reassigned_total"
	// MetricFaultsTotal counts detected faults by classification.
	MetricFaultsTotal = "fela_rt_faults_total"
	// MetricScaleTotal counts applied membership changes by kind.
	MetricScaleTotal = "fela_rt_scale_total"
	// MetricWorkerRate gauges each worker's EWMA token rate (tokens/s).
	MetricWorkerRate = "fela_rt_worker_rate"
	// MetricStragglerScore gauges each worker's relative lag:
	// 1 − rate/max(rate) over the live set, 0 for the fastest worker.
	MetricStragglerScore = "fela_rt_straggler_score"
)

// RateAlpha is the EWMA smoothing for live per-worker token rates:
// the coordinator's straggler signal and the elastic re-tuner's rate
// estimate both weigh the latest iteration by it.
const RateAlpha = 0.5

// coTelemetry bundles the coordinator's hot-path instruments so the
// event loop never does a registry lookup per message. Built once in
// NewCoordinator; every instrument is nil when telemetry is off, and
// all instrument methods are nil-safe no-ops.
type coTelemetry struct {
	tokenLat   *obs.Histogram
	iterTime   *obs.Histogram
	barrier    *obs.Histogram
	live       *obs.Gauge
	iteration  *obs.Gauge
	steals     *obs.Counter
	reassigned *obs.Counter
}

func newCoTelemetry(reg *obs.Registry) coTelemetry {
	reg.Help(MetricTokenSeconds, "Token assign-to-report latency in seconds (a queued token counts from the previous report).")
	reg.Help(MetricIterSeconds, "Wall-clock duration of one BSP iteration in seconds.")
	reg.Help(MetricBarrierSeconds, "Loss sum + optimizer step + checkpoint + membership-barrier time between iterations in seconds.")
	reg.Help(MetricLiveWorkers, "Trainable (alive, non-draining) worker count.")
	reg.Help(MetricIteration, "Most recently completed iteration.")
	reg.Help(MetricTokensTotal, "Tokens reported, by worker id.")
	reg.Help(MetricStealsTotal, "Tokens trained away from their shard owner.")
	reg.Help(MetricReassignedTotal, "Token assignments revoked from dead, hung or draining workers.")
	reg.Help(MetricFaultsTotal, "Detected worker faults, by classification.")
	reg.Help(MetricScaleTotal, "Applied membership changes, by kind.")
	reg.Help(MetricWorkerRate, "Per-worker EWMA token rate in tokens/second.")
	reg.Help(MetricStragglerScore, "Per-worker relative lag: 1 - rate/max(rate); 0 is the fastest worker.")
	return coTelemetry{
		tokenLat:   reg.Histogram(MetricTokenSeconds, nil),
		iterTime:   reg.Histogram(MetricIterSeconds, nil),
		barrier:    reg.Histogram(MetricBarrierSeconds, nil),
		live:       reg.Gauge(MetricLiveWorkers),
		iteration:  reg.Gauge(MetricIteration),
		steals:     reg.Counter(MetricStealsTotal),
		reassigned: reg.Counter(MetricReassignedTotal),
	}
}

// observeIteration feeds one completed iteration into the live signals:
// the iteration-time histogram, per-worker EWMA rates and straggler
// scores (Eq. 3/4's live inputs), and the membership gauges.
func (co *Coordinator) observeIteration(iterTime time.Duration) {
	// The iteration root span is still open here; its trace id becomes
	// the histogram exemplar so tail iterations are traceable.
	co.tele.iterTime.ObserveExemplar(iterTime.Seconds(), co.iterSpan.Context())
	co.tele.iteration.Set(float64(co.it))
	co.tele.live.Set(float64(co.trainableCount()))
	secs := iterTime.Seconds()
	if secs <= 0 {
		return
	}
	// Update every live worker's EWMA, including workers that reported
	// nothing this iteration (stalled or starved by stealing): a zero
	// observation is a real straggler signal, and the queue budget and
	// /statusz read these rates. (The elastic re-tuner keeps its own
	// estimate and skips zero-token iterations, so a joiner stays a
	// helper until it trains.)
	live := map[int]bool{}
	var max float64
	for _, ws := range co.workers {
		if !ws.alive || ws.draining {
			continue
		}
		live[ws.wid] = true
		rate := float64(co.iterTokens[ws.wid]) / secs
		if old, ok := co.rates[ws.wid]; ok {
			rate = (1-RateAlpha)*old + RateAlpha*rate
		}
		co.rates[ws.wid] = rate
		if rate > max {
			max = rate
		}
	}
	// Drop departed workers so stale rates never skew max or /statusz.
	for wid := range co.rates {
		if !live[wid] {
			delete(co.rates, wid)
		}
	}
	for _, ws := range co.workers {
		if !ws.alive || ws.draining {
			continue
		}
		rate := co.rates[ws.wid]
		co.cfg.Metrics.Gauge(MetricWorkerRate, "worker", strconv.Itoa(ws.wid)).Set(rate)
		score := 0.0
		if max > 0 {
			score = 1 - rate/max
		}
		co.cfg.Metrics.Gauge(MetricStragglerScore, "worker", strconv.Itoa(ws.wid)).Set(score)
	}
}

// publishStatus snapshots the session for /statusz readers. Called from
// the coordinator goroutine only; readers load the pointer atomically.
func (co *Coordinator) publishStatus() {
	// After the training loop the iteration variable has overshot by
	// one; clamp so Iter always names the last completed iteration.
	iter := co.it
	if iter >= co.cfg.Iterations {
		iter = co.cfg.Iterations - 1
	}
	st := &Status{
		Role:           "coordinator",
		Iter:           iter,
		Iterations:     co.cfg.Iterations,
		LiveWorkers:    co.trainableIDs(),
		PendingJoins:   len(co.pendingJoins),
		TokensByWorker: map[int]int{},
		Steals:         co.res.Steals,
		Reassigned:     co.res.Reassigned,
		RecentFaults:   tail(co.res.Faults, statusHistory),
		RecentScales:   tail(co.res.Scales, statusHistory),
		UptimeSeconds:  time.Since(co.start).Seconds(),
	}
	if st.LiveWorkers == nil {
		st.LiveWorkers = []int{}
	}
	for wid, n := range co.res.TokensByWorker {
		if n > 0 {
			st.TokensByWorker[wid] = n
		}
	}
	for _, ws := range co.workers {
		if ws.alive && ws.draining {
			st.Draining = append(st.Draining, ws.wid)
		}
	}
	sort.Ints(st.Draining)
	if len(co.rates) > 0 {
		st.TokenRate = map[int]float64{}
		st.StragglerScore = map[int]float64{}
		var max float64
		for _, r := range co.rates {
			if r > max {
				max = r
			}
		}
		for wid, r := range co.rates {
			st.TokenRate[wid] = r
			if max > 0 {
				st.StragglerScore[wid] = 1 - r/max
			}
		}
	}
	co.status.Store(st)
}

// Status returns the most recently published session snapshot, nil
// before registration completes. Safe to call from any goroutine (the
// /statusz handler's feed).
func (co *Coordinator) Status() *Status {
	return co.status.Load()
}

// StatusAny adapts Status to the obs.Handler statusFn signature without
// handing out a typed nil.
func (co *Coordinator) StatusAny() any {
	if st := co.Status(); st != nil {
		return st
	}
	return nil
}

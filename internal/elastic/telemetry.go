package elastic

import (
	"fmt"
	"strconv"

	"fela/internal/obs"
)

// Metric names exported by an observed Controller. Together with the rt
// engine's fela_rt_scale_total they make every elastic decision
// scrapeable: how often barriers fired, how often the distribution was
// recomputed, what the controller decided, and the resulting per-worker
// ownership.
const (
	// MetricBarriers counts iteration barriers the controller observed.
	MetricBarriers = "fela_elastic_barriers_total"
	// MetricRetunes counts distribution recomputations.
	MetricRetunes = "fela_elastic_retunes_total"
	// MetricDecisions counts membership verdicts by kind: "admit",
	// "leave", "evict", and "defer" for joins/evictions held back by the
	// worker bounds.
	MetricDecisions = "fela_elastic_decisions_total"
	// MetricShare gauges the re-tuner's current token ownership per
	// worker (its rate-proportional shares, live).
	MetricShare = "fela_elastic_share"
	// MetricRate gauges the re-tuner's EWMA tokens/sec estimate per
	// worker (the Eq. 3 input signal).
	MetricRate = "fela_elastic_rate"
)

// SetObs attaches a telemetry registry to the controller (and its
// re-tuner). Call before the session starts; nil keeps the no-op path.
func (c *Controller) SetObs(reg *obs.Registry) {
	if reg != nil {
		reg.Help(MetricBarriers, "Iteration barriers observed by the elastic controller.")
		reg.Help(MetricRetunes, "Token distribution recomputations.")
		reg.Help(MetricDecisions, "Elastic membership verdicts by kind (admit/leave/evict/defer).")
		reg.Help(MetricShare, "Current re-tuned token ownership per worker.")
		reg.Help(MetricRate, "Re-tuner EWMA token rate estimate per worker (tokens/s).")
	}
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
	c.retuner.mu.Lock()
	c.retuner.reg = reg
	c.retuner.mu.Unlock()
}

// observeDecision records one barrier's verdict. Called with c.mu held.
func (c *Controller) observeDecision(iter int, dec rtDecisionCounts) {
	// The retune verdict always lands in the flight recorder, even with
	// metrics off — elastic decisions are protocol events.
	if dec.admits+dec.leaves+dec.evicts+dec.defers > 0 {
		ev := obs.Evt("elastic", "retune")
		ev.Iter = iter
		ev.Detail = fmt.Sprintf("admit=%d leave=%d evict=%d defer=%d",
			dec.admits, dec.leaves, dec.evicts, dec.defers)
		obs.Flight().Record(ev)
	}
	if c.reg == nil {
		return
	}
	c.reg.Counter(MetricBarriers).Inc()
	c.reg.Counter(MetricDecisions, "kind", "admit").Add(int64(dec.admits))
	c.reg.Counter(MetricDecisions, "kind", "leave").Add(int64(dec.leaves))
	c.reg.Counter(MetricDecisions, "kind", "evict").Add(int64(dec.evicts))
	c.reg.Counter(MetricDecisions, "kind", "defer").Add(int64(dec.defers))
}

// rtDecisionCounts summarizes one AtBarrier verdict for telemetry.
type rtDecisionCounts struct {
	admits, leaves, evicts, defers int
}

// observeShares publishes the recomputed shares. Called with r.mu held.
func (r *Retuner) observeShares() {
	if r.reg == nil {
		return
	}
	r.reg.Counter(MetricRetunes).Inc()
	for wid, n := range r.dist {
		r.reg.Gauge(MetricShare, "worker", strconv.Itoa(wid)).Set(float64(n))
	}
	for _, wid := range r.live {
		r.reg.Gauge(MetricRate, "worker", strconv.Itoa(wid)).Set(r.speed[wid])
	}
}

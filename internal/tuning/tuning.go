// Package tuning implements Fela's runtime configuration tuning (§IV-B):
// a two-phase warm-up search over discrete candidate configurations.
//
// Phase 1 sweeps the parallelism-degree weight vectors (non-decreasing
// over {1,2,4,...,2^⌊log2 N⌋}; 10 cases for M=3, N=8) with CTD disabled
// and measures mean per-iteration time over a few warm-up iterations per
// case. Phase 2 fixes the best weights and halves the conditional subset
// size (N, N/2, ..., 1), measuring again. The subset-of-N case equals
// Phase 1's winner, so the paper counts 10 + 4 − 1 = 13 distinct cases.
package tuning

import (
	"fmt"

	"fela/internal/cluster"
	"fela/internal/felaengine"
	"fela/internal/metrics"
	"fela/internal/model"
	"fela/internal/scheduler"
)

// Options configures the tuner.
type Options struct {
	// WarmupIters is the number of iterations measured per case (the
	// paper uses 5).
	WarmupIters int
	// ClusterConfig builds a fresh cluster per case so measurements are
	// independent.
	ClusterConfig cluster.Config
}

// DefaultOptions returns the paper's tuning setup: 5 warm-up iterations
// per case on the 8-node testbed.
func DefaultOptions() Options {
	return Options{WarmupIters: 5, ClusterConfig: cluster.Testbed8()}
}

// Case is one measured configuration.
type Case struct {
	// Index is the case number (0-based; Phase 1 cases come first, as
	// in Fig. 6(a)).
	Index int
	// Phase is 1 or 2 (3 marks this implementation's subset/FC-weight
	// co-tuning refinement cases).
	Phase int
	// Weights is the parallelism-degree vector of the case.
	Weights []int
	// SubsetSize is the conditional subset size (N in Phase 1).
	SubsetSize int
	// IterTime is the measured mean per-iteration time in seconds.
	IterTime float64
}

// Result is the outcome of a tuning run.
type Result struct {
	// Model and TotalBatch identify the tuned workload.
	Model      string
	TotalBatch int
	// Cases are all measured cases in order: Phase 1 then Phase 2,
	// excluding the duplicated full-subset case — the paper's 13 —
	// then the refinement's phase-3 cases.
	Cases []Case
	// BestWeights and BestSubset are the chosen configuration.
	BestWeights []int
	BestSubset  int
	// Phase1Gap and Phase2Gap are the best-vs-worst per-iteration-time
	// savings within each phase ((worst-best)/worst, Fig. 6(b)).
	Phase1Gap float64
	Phase2Gap float64
	// OverallGap is the best-vs-worst saving across all cases.
	OverallGap float64
	// WarmupIterations is the total warm-up cost in iterations.
	WarmupIterations int
}

// NormalizedTimes returns the per-case iteration times rescaled to [0,1]
// as plotted in Fig. 6(a).
func (r *Result) NormalizedTimes() []float64 {
	xs := make([]float64, len(r.Cases))
	for i, c := range r.Cases {
		xs[i] = c.IterTime
	}
	return metrics.Normalize(xs)
}

// subsetWorkers returns the first k worker ids.
func subsetWorkers(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// measure runs one configuration for opts.WarmupIters iterations on a
// fresh cluster and returns the mean per-iteration time.
func measure(m *model.Model, subs []model.SubModel, weights []int, subset int, totalBatch int, opts Options) (float64, error) {
	c := cluster.New(opts.ClusterConfig)
	pol := scheduler.Policy{ADS: true, HF: true}
	if subset < c.N() {
		pol.CTD = true
		pol.CTDSubset = subsetWorkers(subset)
	}
	res, err := felaengine.Run(c, felaengine.Config{
		Model:      m,
		Subs:       subs,
		Weights:    weights,
		TotalBatch: totalBatch,
		Iterations: opts.WarmupIters,
		Policy:     pol,
	})
	if err != nil {
		return 0, err
	}
	return res.AvgIterTime(), nil
}

// Tune runs the two-phase search and returns the near-optimal
// configuration together with every measured case.
func Tune(m *model.Model, subs []model.SubModel, totalBatch int, opts Options) (*Result, error) {
	if opts.WarmupIters <= 0 {
		return nil, fmt.Errorf("tuning: warm-up iterations must be positive")
	}
	n := opts.ClusterConfig.N
	r := &Result{Model: m.Name, TotalBatch: totalBatch}

	// Phase 1: parallelism-degree tuning, no CTD (subset = N).
	bestIdx := -1
	for _, w := range scheduler.CandidateWeights(len(subs), n) {
		t, err := measure(m, subs, w, n, totalBatch, opts)
		if err != nil {
			return nil, fmt.Errorf("tuning: weights %v: %w", w, err)
		}
		c := Case{Index: len(r.Cases), Phase: 1, Weights: w, SubsetSize: n, IterTime: t}
		r.Cases = append(r.Cases, c)
		if bestIdx < 0 || t < r.Cases[bestIdx].IterTime {
			bestIdx = c.Index
		}
	}
	phase1End := len(r.Cases)
	r.BestWeights = r.Cases[bestIdx].Weights
	r.BestSubset = n

	// Phase 2: conditional-subset tuning with the fixed best weights.
	// The full-subset case is Phase 1's winner and is not re-measured
	// (hence the paper's 10 + 4 − 1 = 13 cases).
	bestTime := r.Cases[bestIdx].IterTime
	for _, s := range scheduler.SubsetSizes(n)[1:] {
		t, err := measure(m, subs, r.BestWeights, s, totalBatch, opts)
		if err != nil {
			return nil, fmt.Errorf("tuning: subset %d: %w", s, err)
		}
		c := Case{Index: len(r.Cases), Phase: 2, Weights: r.BestWeights, SubsetSize: s, IterTime: t}
		r.Cases = append(r.Cases, c)
		if t < bestTime {
			bestTime = t
			r.BestSubset = s
		}
	}

	// Gap statistics (Fig. 6(b)) cover the paper's 13 cases.
	r.Phase1Gap = gap(r.Cases[:phase1End])
	phase2 := append([]Case{r.Cases[bestIdx]}, r.Cases[phase1End:]...)
	r.Phase2Gap = gap(phase2)
	r.OverallGap = gap(r.Cases)

	// Refinement (ours, ≤3 extra cases after the paper's 13): co-tune
	// the FC weight with the conditional subset. Raising w_M to its
	// maximum turns the comm-intensive sub-model into few large tokens,
	// which only pays off once CTD concentrates them — a coupling the
	// strict greedy order (weights first, subset second) can never reach.
	// See DESIGN.md §5 and EXPERIMENTS.md.
	maxW := 1
	for maxW*2 <= n {
		maxW *= 2
	}
	if r.BestWeights[len(r.BestWeights)-1] < maxW {
		alt := make([]int, len(r.BestWeights))
		copy(alt, r.BestWeights)
		alt[len(alt)-1] = maxW
		bestTime := minTime(r.Cases)
		for _, s := range scheduler.SubsetSizes(n)[1:] {
			t, err := measure(m, subs, alt, s, totalBatch, opts)
			if err != nil {
				return nil, fmt.Errorf("tuning: refinement subset %d: %w", s, err)
			}
			c := Case{Index: len(r.Cases), Phase: 3, Weights: alt, SubsetSize: s, IterTime: t}
			r.Cases = append(r.Cases, c)
			if t < bestTime {
				bestTime = t
				r.BestWeights = alt
				r.BestSubset = s
			}
		}
	}
	r.WarmupIterations = len(r.Cases) * opts.WarmupIters
	return r, nil
}

// minTime returns the smallest measured iteration time.
func minTime(cases []Case) float64 {
	best := cases[0].IterTime
	for _, c := range cases[1:] {
		if c.IterTime < best {
			best = c.IterTime
		}
	}
	return best
}

// gap computes (worst − best) / worst over the cases' iteration times.
func gap(cases []Case) float64 {
	if len(cases) == 0 {
		return 0
	}
	best, worst := cases[0].IterTime, cases[0].IterTime
	for _, c := range cases[1:] {
		if c.IterTime < best {
			best = c.IterTime
		}
		if c.IterTime > worst {
			worst = c.IterTime
		}
	}
	if worst == 0 {
		return 0
	}
	return (worst - best) / worst
}

// Policy returns the scheduler policy implementing the tuned
// configuration (all policies on; CTD active only when the subset is a
// strict subset of the cluster).
func (r *Result) Policy(workers int) scheduler.Policy {
	if r.BestSubset < workers {
		return scheduler.FullFela(subsetWorkers(r.BestSubset))
	}
	return scheduler.Policy{ADS: true, HF: true}
}

// Package workload generates and replays open-loop job arrival streams
// for the multi-tenant cluster mode. A Trace is a seeded, deterministic
// sequence of timed job arrivals: generators (Poisson, bursty MMPP,
// diurnal) produce the inter-arrival process, a Mix samples each
// arrival's JobSpec and SLO, and the JSONL codec makes every trace a
// replayable artifact — the same file drives felabench's cluster
// experiment, felaserver -cluster-trace, and the golden decision-log
// tests that pin scheduler determinism.
//
// Open loop means arrivals fire at their recorded offsets regardless of
// how the cluster is coping: a saturated pool sees the queue grow
// instead of the trace slowing down, which is what makes overload
// regimes (and admission control) observable at all.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fela/internal/transport"
)

// Event is one arrival in a trace.
type Event struct {
	// At is the arrival offset from the start of the trace, in
	// nanoseconds on the wire so round-trips are exact.
	At time.Duration `json:"at_ns"`
	// SLO is the submitter's target completion latency (queue wait plus
	// runtime); 0 means no SLO.
	SLO time.Duration `json:"slo_ns,omitempty"`
	// Spec is the job to submit.
	Spec transport.JobSpec `json:"spec"`
}

// Trace is a replayable arrival stream.
type Trace struct {
	// Name labels the trace in reports.
	Name string `json:"name,omitempty"`
	// Generator and Seed record how the trace was synthesized (empty
	// for recorded traces).
	Generator string `json:"generator,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// Events are the arrivals in non-decreasing At order.
	Events []Event `json:"-"`
}

// Generator produces an inter-arrival process. Implementations draw
// only from the supplied rand.Rand, so a fixed seed reproduces the
// trace exactly.
type Generator interface {
	// Name labels the generator in trace metadata.
	Name() string
	// Gap returns the inter-arrival gap before the next event, given
	// the absolute offset t of the previous one.
	Gap(r *rand.Rand, t time.Duration) time.Duration
}

// Poisson is the memoryless open-loop arrival process: exponential
// gaps at Rate arrivals per second.
type Poisson struct {
	// Rate is the arrival intensity in jobs per second.
	Rate float64
}

// Name implements Generator.
func (p Poisson) Name() string { return "poisson" }

// Gap implements Generator.
func (p Poisson) Gap(r *rand.Rand, _ time.Duration) time.Duration {
	return secs(r.ExpFloat64() / p.Rate)
}

// Bursty is a two-state Markov-modulated Poisson process: the stream
// alternates between a calm phase and a burst phase, with
// exponentially distributed dwell times. It models flash crowds: the
// long-run mean rate can equal a Poisson trace's while the bursts
// transiently overload any fixed-capacity pool.
type Bursty struct {
	// BaseRate and BurstRate are the per-phase arrival intensities in
	// jobs per second.
	BaseRate, BurstRate float64
	// BaseDwell and BurstDwell are the mean phase durations.
	BaseDwell, BurstDwell time.Duration

	// burst is the current phase; left is the time remaining in it.
	// State advances only inside Gap, so reuse across traces is safe as
	// long as each trace gets a fresh value.
	burst bool
	left  time.Duration
}

// Name implements Generator.
func (b *Bursty) Name() string { return "bursty" }

// Gap implements Generator.
func (b *Bursty) Gap(r *rand.Rand, _ time.Duration) time.Duration {
	var gap time.Duration
	for {
		rate, dwell := b.BaseRate, b.BaseDwell
		if b.burst {
			rate, dwell = b.BurstRate, b.BurstDwell
		}
		if b.left <= 0 {
			b.left = secs(r.ExpFloat64() * dwell.Seconds())
		}
		step := secs(r.ExpFloat64() / rate)
		if step < b.left {
			b.left -= step
			return gap + step
		}
		// The phase flips before the next arrival: spend the remainder
		// of this phase and resample in the next one.
		gap += b.left
		b.left = 0
		b.burst = !b.burst
	}
}

// Diurnal is an inhomogeneous Poisson process whose rate follows a
// sinusoidal day/night cycle: rate(t) = MeanRate·(1 + Amplitude·sin),
// sampled by thinning against the peak rate.
type Diurnal struct {
	// MeanRate is the cycle-average arrival intensity in jobs per
	// second.
	MeanRate float64
	// Period is the cycle length (a compressed "day").
	Period time.Duration
	// Amplitude in [0, 1) scales the swing between trough and peak.
	Amplitude float64
}

// Name implements Generator.
func (d Diurnal) Name() string { return "diurnal" }

// rate is the instantaneous intensity at offset t.
func (d Diurnal) rate(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t%d.Period) / float64(d.Period)
	return d.MeanRate * (1 + d.Amplitude*math.Sin(phase))
}

// Gap implements Generator.
func (d Diurnal) Gap(r *rand.Rand, t time.Duration) time.Duration {
	peak := d.MeanRate * (1 + d.Amplitude)
	gap := time.Duration(0)
	for {
		step := secs(r.ExpFloat64() / peak)
		gap += step
		if r.Float64()*peak <= d.rate(t+gap) {
			return gap
		}
	}
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// JobClass is one entry of a Mix: a family of jobs with a weight and
// sampled size/priority/SLO ranges.
type JobClass struct {
	Name string
	// Weight is the class's relative share of arrivals.
	Weight float64
	// IterMin/IterMax bound the sampled iteration count (inclusive).
	IterMin, IterMax int
	// TokMin/TokMax bound the sampled tokens per iteration (inclusive);
	// TotalBatch becomes tokens × the mix's TokenBatch.
	TokMin, TokMax int
	// MaxWorkers caps the job's allocation (0 = unbounded).
	MaxWorkers int
	// Priority is the job's tier under priority-aware policies.
	Priority int
	// SLOSlackMin/Max bound the sampled SLO slack: the SLO is slack ×
	// the job's ideal single-worker runtime under the mix's TokenCost.
	SLOSlackMin, SLOSlackMax float64
}

// Mix samples JobSpecs for synthesized traces.
type Mix struct {
	Classes []JobClass
	// TokenBatch is the per-token minibatch every sampled spec uses.
	TokenBatch int
	// TokenCost is the simulated per-token compute cost of the target
	// pool (rt.Config.TokenDelay); SLOs are derived from it.
	TokenCost time.Duration
	// SeedSpread bounds the distinct model seeds sampled (so reference
	// verification at 1000-job scale only needs SeedSpread × class
	// sequential baselines). 0 means 8.
	SeedSpread int
}

// DefaultMix is the cluster benchmark's job population: a skewed
// small/medium/large split (most jobs tiny, a heavy tail of large
// ones) with tighter SLOs and higher priority on the small end —
// the regime where admission control has something to decide.
func DefaultMix(tokenCost time.Duration) Mix {
	return Mix{
		TokenBatch: 8,
		TokenCost:  tokenCost,
		Classes: []JobClass{
			{Name: "small", Weight: 0.6, IterMin: 2, IterMax: 4, TokMin: 2, TokMax: 4,
				MaxWorkers: 2, Priority: 2, SLOSlackMin: 4, SLOSlackMax: 8},
			{Name: "medium", Weight: 0.3, IterMin: 3, IterMax: 6, TokMin: 4, TokMax: 8,
				MaxWorkers: 4, Priority: 1, SLOSlackMin: 3, SLOSlackMax: 6},
			{Name: "large", Weight: 0.1, IterMin: 4, IterMax: 8, TokMin: 8, TokMax: 16,
				MaxWorkers: 8, Priority: 0, SLOSlackMin: 2, SLOSlackMax: 4},
		},
	}
}

// Synthesize draws an n-event trace from gen and mix with the given
// seed. The same (gen config, mix, n, seed) always yields the same
// trace, byte for byte once encoded.
func Synthesize(gen Generator, mix Mix, n int, seed int64) (Trace, error) {
	if n <= 0 {
		return Trace{}, fmt.Errorf("workload: trace length must be positive")
	}
	if len(mix.Classes) == 0 {
		return Trace{}, fmt.Errorf("workload: mix has no classes")
	}
	tb := mix.TokenBatch
	if tb <= 0 {
		tb = 8
	}
	spread := mix.SeedSpread
	if spread <= 0 {
		spread = 8
	}
	var totalW float64
	for _, c := range mix.Classes {
		if c.Weight <= 0 {
			return Trace{}, fmt.Errorf("workload: class %q weight must be positive", c.Name)
		}
		totalW += c.Weight
	}

	r := rand.New(rand.NewSource(seed))
	tr := Trace{
		Name:      fmt.Sprintf("%s-%d", gen.Name(), n),
		Generator: gen.Name(),
		Seed:      seed,
		Events:    make([]Event, 0, n),
	}
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += gen.Gap(r, at)

		// Pick a class by weight, then sample the spec inside it.
		pick := r.Float64() * totalW
		cls := mix.Classes[len(mix.Classes)-1]
		for _, c := range mix.Classes {
			if pick < c.Weight {
				cls = c
				break
			}
			pick -= c.Weight
		}
		iters := cls.IterMin + intn(r, cls.IterMax-cls.IterMin+1)
		toks := cls.TokMin + intn(r, cls.TokMax-cls.TokMin+1)
		slack := cls.SLOSlackMin + r.Float64()*(cls.SLOSlackMax-cls.SLOSlackMin)
		spec := transport.JobSpec{
			Name:       fmt.Sprintf("%s-%04d", cls.Name, i),
			Seed:       1 + int64(intn(r, spread)),
			Iterations: iters,
			TotalBatch: toks * tb,
			TokenBatch: tb,
			MinWorkers: 1,
			MaxWorkers: cls.MaxWorkers,
			Priority:   cls.Priority,
		}
		ideal := time.Duration(iters*toks) * mix.TokenCost
		tr.Events = append(tr.Events, Event{
			At:   at,
			SLO:  time.Duration(slack * float64(ideal)),
			Spec: spec,
		})
	}
	return tr, nil
}

func intn(r *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return r.Intn(n)
}

// Replay fires submit for every event at its recorded offset divided
// by speedup (0 or 1 = real time), open loop: the schedule never waits
// for the cluster. It returns early with the number of events fired if
// stop closes first.
func Replay(tr Trace, speedup float64, stop <-chan struct{}, submit func(Event)) int {
	if speedup <= 0 {
		speedup = 1
	}
	start := time.Now()
	for i, e := range tr.Events {
		due := start.Add(time.Duration(float64(e.At) / speedup))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-stop:
				return i
			}
		} else {
			select {
			case <-stop:
				return i
			default:
			}
		}
		submit(e)
	}
	return len(tr.Events)
}

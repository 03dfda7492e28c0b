package elastic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fela/internal/rt"
)

// observe feeds one synthetic iteration: every listed worker trained
// `each` tokens in the given duration.
func observe(r *Retuner, iter int, dur time.Duration, counts map[int]int) {
	r.Observe(iter, dur, counts)
}

// TestRetunerSilentBeforeSignal: with no timing signal the retuner must
// defer to the engine's round-robin (nil distribution).
func TestRetunerSilentBeforeSignal(t *testing.T) {
	r := NewRetuner()
	if d := r.Distribution(8, []int{0, 1}); d != nil {
		t.Fatalf("distribution before any signal = %v, want nil", d)
	}
	if r.Shares() != nil {
		t.Fatalf("shares before any signal = %v, want nil", r.Shares())
	}
}

// TestRetunerProportional: a worker measured 3x faster owns ~3x the
// tokens, and the full distribution covers every token exactly once.
func TestRetunerProportional(t *testing.T) {
	r := NewRetuner()
	r.Distribution(8, []int{0, 1}) // membership signal
	observe(r, 0, 100*time.Millisecond, map[int]int{0: 6, 1: 2})
	d := r.Distribution(8, []int{0, 1})
	if len(d) != 8 {
		t.Fatalf("distribution length %d, want 8", len(d))
	}
	counts := map[int]int{}
	for _, wid := range d {
		counts[wid]++
	}
	if counts[0] != 6 || counts[1] != 2 {
		t.Fatalf("shares %v, want worker 0 owning 6 and worker 1 owning 2", counts)
	}
}

// TestRetunerReactsToScaleUp is the re-tuning acceptance criterion in
// its purest form: after a 2 -> 4 scale-up the chosen distribution
// includes the joiners within three observed iterations, with no
// fresh-cluster rebuild — the only input is the live timing feed.
func TestRetunerReactsToScaleUp(t *testing.T) {
	r := NewRetuner()
	two := []int{0, 1}
	four := []int{0, 1, 2, 3}

	r.Distribution(8, two)
	observe(r, 0, 100*time.Millisecond, map[int]int{0: 4, 1: 4})
	if d := r.Distribution(8, two); len(d) != 8 {
		t.Fatalf("steady-state distribution = %v", d)
	}
	before := r.Retunes()

	// Scale event: workers 2 and 3 appear. They have no rate estimate
	// yet, so the first post-scale distribution keeps them as pure
	// helpers (zero owned tokens).
	d := r.Distribution(8, four)
	counts := map[int]int{}
	for _, wid := range d {
		counts[wid]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("joiners own tokens before any measurement: %v", counts)
	}

	// One observed iteration in which the joiners (stealing as helpers)
	// trained tokens gives them rates; the deferred search re-runs.
	iters := 0
	for ; iters < 3; iters++ {
		observe(r, 1+iters, 100*time.Millisecond, map[int]int{0: 2, 1: 2, 2: 2, 3: 2})
		d = r.Distribution(8, four)
		counts = map[int]int{}
		for _, wid := range d {
			counts[wid]++
		}
		if counts[2] > 0 && counts[3] > 0 {
			break
		}
	}
	if iters >= 3 {
		t.Fatalf("distribution still excludes joiners after 3 iterations: %v", counts)
	}
	if r.Retunes() <= before {
		t.Fatal("scale-up did not trigger a re-tune")
	}
	if r.Rate(2) <= 0 || r.Rate(3) <= 0 {
		t.Fatalf("joiner rates not estimated: %v %v", r.Rate(2), r.Rate(3))
	}
}

// TestRetunerEWMA: the rate estimate tracks fresh measurements with
// rt.RateAlpha's smoothing.
func TestRetunerEWMA(t *testing.T) {
	r := NewRetuner()
	r.Distribution(4, []int{0})
	observe(r, 0, 1*time.Second, map[int]int{0: 4}) // 4 tok/s
	observe(r, 1, 1*time.Second, map[int]int{0: 8}) // 8 tok/s
	if got := r.Rate(0); got != 6 {
		t.Fatalf("EWMA rate %v, want 6 (midpoint of 4 and 8)", got)
	}
}

// TestRetunerDrainShrink: dropping from 3 workers to 2 redistributes the
// departed worker's tokens immediately (the survivors have estimates, so
// the search need not wait).
func TestRetunerDrainShrink(t *testing.T) {
	r := NewRetuner()
	r.Distribution(9, []int{0, 1, 2})
	observe(r, 0, 100*time.Millisecond, map[int]int{0: 3, 1: 3, 2: 3})
	r.Distribution(9, []int{0, 1, 2})

	d := r.Distribution(9, []int{0, 2}) // worker 1 left
	if len(d) != 9 {
		t.Fatalf("post-drain distribution = %v, want 9 tokens", d)
	}
	for _, wid := range d {
		if wid == 1 {
			t.Fatalf("departed worker still owns tokens: %v", d)
		}
	}
}

// sumShares sums a share map's values.
func sumShares(m map[int]int) int {
	total := 0
	for _, n := range m {
		total += n
	}
	return total
}

// TestShareHelpers: the largest-remainder split is an exact partition
// with a deterministic tie-break.
func TestShareHelpers(t *testing.T) {
	speed := map[int]float64{1: 1, 2: 1, 3: 2}
	got := proportionalShares(8, []int{1, 2, 3}, speed)
	if sumShares(got) != 8 || got[3] != 4 || got[1] != 2 || got[2] != 2 {
		t.Errorf("proportionalShares = %v", got)
	}
}

// TestRetunerClosedForm checks the re-tuner's distribution against its
// definition on random live sets and rates: every worker with a rate
// owns within one token of its exact fair share nTok·v/Σv, the shares
// cover every token, equal rates leave the lower id no fewer tokens,
// and workers with no rate yet own nothing.
func TestRetunerClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		r := NewRetuner()
		var live []int
		for wid := 0; wid < 10; wid++ {
			if rng.Intn(2) == 0 {
				live = append(live, wid)
			}
		}
		if len(live) == 0 {
			continue
		}
		nTok := 1 + rng.Intn(64)
		r.Distribution(nTok, live)
		// Each measured worker trains 1..4 tokens (so rates tie often)
		// or a random amount in one second.
		trained := map[int]int{}
		for _, wid := range live {
			if rng.Intn(4) == 0 {
				continue // no rate yet
			}
			if trial%2 == 0 {
				trained[wid] = 1 + rng.Intn(4)
			} else {
				trained[wid] = 1 + rng.Intn(1000)
			}
		}
		r.Observe(0, time.Second, trained)
		d := r.Distribution(nTok, live)
		if len(trained) == 0 {
			if d != nil {
				t.Fatalf("distribution %v with no rate measured, want nil", d)
			}
			continue
		}
		if len(d) != nTok {
			t.Fatalf("live %v, nTok %d, trained %v: distribution covers %d tokens", live, nTok, trained, len(d))
		}
		owned := map[int]int{}
		for _, wid := range d {
			owned[wid]++
		}
		var sum float64
		for _, n := range trained {
			sum += float64(n)
		}
		for _, wid := range live {
			v, known := trained[wid]
			if !known {
				if owned[wid] != 0 {
					t.Fatalf("worker %d has no rate but owns %d tokens (trained %v)", wid, owned[wid], trained)
				}
				continue
			}
			fair := float64(nTok) * float64(v) / sum
			if math.Abs(float64(owned[wid])-fair) >= 1 {
				t.Fatalf("worker %d owns %d, fair share %.3f (nTok %d, trained %v)", wid, owned[wid], fair, nTok, trained)
			}
			for _, hi := range live {
				if hi > wid && trained[hi] == v && owned[hi] > owned[wid] {
					t.Fatalf("equal rates: worker %d owns %d < worker %d's %d (trained %v)", wid, owned[wid], hi, owned[hi], trained)
				}
			}
		}
	}
}

// TestControllerBounds: admission is capped by MaxWorkers and eviction
// refuses to dip below MinWorkers, retrying once the session regrows.
func TestControllerBounds(t *testing.T) {
	c, err := NewController(Config{MinWorkers: 2, MaxWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	dec := c.AtBarrier(rt.BarrierInfo{
		Iter: 0, Live: []int{0, 1}, PendingJoins: 5,
		IterTime: time.Millisecond, TokensByWorker: map[int]int{0: 4, 1: 4},
	})
	if dec.AdmitJoins != 1 {
		t.Fatalf("admitted %d joiners at cap 3 with 2 live, want 1", dec.AdmitJoins)
	}

	// Evicting would leave 1 < MinWorkers: refused but kept queued.
	c.RequestEvict(1)
	dec = c.AtBarrier(rt.BarrierInfo{Iter: 1, Live: []int{0, 1}})
	if len(dec.Evict) != 0 {
		t.Fatalf("evicted %v below MinWorkers", dec.Evict)
	}
	// Session grew: the queued eviction applies now.
	dec = c.AtBarrier(rt.BarrierInfo{Iter: 2, Live: []int{0, 1, 2}})
	if len(dec.Evict) != 1 || dec.Evict[0] != 1 {
		t.Fatalf("eviction after regrow = %v, want [1]", dec.Evict)
	}
	// Re-requesting a worker that is already gone is dropped silently.
	c.RequestEvict(1)
	dec = c.AtBarrier(rt.BarrierInfo{Iter: 3, Live: []int{0, 2}})
	if len(dec.Evict) != 0 {
		t.Fatalf("evicted a departed worker: %v", dec.Evict)
	}
	if c.Barriers() != 4 {
		t.Fatalf("barriers = %d, want 4", c.Barriers())
	}
}

// TestControllerHonorsDrains: pending leaves are always completed, even
// when that undercuts MinWorkers — a drain is voluntary and cannot be
// refused.
func TestControllerHonorsDrains(t *testing.T) {
	c, err := NewController(Config{MinWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	dec := c.AtBarrier(rt.BarrierInfo{Iter: 0, Live: []int{0, 1}, PendingLeaves: []int{0, 1}})
	if len(dec.CompleteLeaves) != 2 {
		t.Fatalf("completed %v, want both pending drains", dec.CompleteLeaves)
	}
}

// TestControllerValidation: nonsensical bounds are rejected.
func TestControllerValidation(t *testing.T) {
	if _, err := NewController(Config{MinWorkers: -1}); err == nil {
		t.Error("negative MinWorkers accepted")
	}
	if _, err := NewController(Config{MinWorkers: 5, MaxWorkers: 2}); err == nil {
		t.Error("MinWorkers > MaxWorkers accepted")
	}
}

package elastic

import (
	"slices"
	"sort"
	"sync"
	"time"

	"fela/internal/obs"
	"fela/internal/rt"
)

// Retuner is the online re-tuner: it keeps an EWMA of each live
// worker's token rate from per-iteration timings and, on every
// membership change, gives each worker a share of the iteration's
// tokens proportional to its rate (largest remainder, ties to the lower
// id). That is the argmin of an iteration's modeled cost — every token
// owned beyond a worker's fair compute share must migrate to a helper —
// so no candidate search is needed; HF stealing absorbs whatever the
// estimate gets wrong.
//
// A worker the re-tuner has no rate for (a fresh joiner) owns zero
// tokens and helps by stealing; its first iteration with a trained
// token yields a rate and triggers the deferred recomputation, so the
// distribution adapts within a couple of iterations of any scale event.
type Retuner struct {
	mu    sync.Mutex
	nTok  int
	live  []int
	speed map[int]float64 // EWMA tokens/sec per worker
	dist  map[int]int     // current ownership counts
	// dirty marks a membership change whose recomputation is still
	// waiting for rate estimates of new workers.
	dirty   bool
	retunes int
	reg     *obs.Registry
}

// NewRetuner builds an online re-tuner.
func NewRetuner() *Retuner {
	return &Retuner{speed: map[int]float64{}}
}

// Observe feeds one live iteration's timing signal: its wall-clock
// duration and the tokens each worker trained. A recomputation deferred
// for missing rate estimates runs as soon as the estimates exist.
func (r *Retuner) Observe(iter int, dur time.Duration, tokens map[int]int) {
	if dur <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	secs := dur.Seconds()
	for wid, n := range tokens {
		if n <= 0 {
			continue
		}
		rate := float64(n) / secs
		if old, ok := r.speed[wid]; ok {
			r.speed[wid] = (1-rt.RateAlpha)*old + rt.RateAlpha*rate
		} else {
			r.speed[wid] = rate
		}
	}
	if r.dirty {
		r.recompute()
	}
}

// Distribution implements the ownership hook: it maps nTok tokens onto
// the live worker ids. A membership change (any difference from the
// last live set) recomputes the shares. Returning nil (before any
// timing signal exists) lets the engine round-robin.
func (r *Retuner) Distribution(nTok int, live []int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nTok = nTok
	if !slices.Equal(r.live, live) {
		r.live = append([]int(nil), live...)
		r.dirty = true
		r.recompute()
	}
	if r.dist == nil {
		return nil
	}
	// Expand shares to per-seq owners, ascending wid; tokens for workers
	// no longer live fall back to the engine's round-robin via nil.
	out := make([]int, 0, nTok)
	for _, wid := range live {
		for i := 0; i < r.dist[wid]; i++ {
			out = append(out, wid)
		}
	}
	if len(out) != nTok {
		return nil
	}
	return out
}

// recompute sets the shares under r.mu: rate-proportional over the live
// workers with a rate estimate, zero for the rest (pure helpers). It
// stays dirty until every live worker has an estimate.
func (r *Retuner) recompute() {
	if r.nTok <= 0 {
		return
	}
	var known []int
	for _, wid := range r.live {
		if r.speed[wid] > 0 {
			known = append(known, wid)
		}
	}
	if len(known) == 0 {
		return // no signal yet; keep round-robin
	}
	r.dist = proportionalShares(r.nTok, known, r.speed)
	r.retunes++
	r.observeShares()
	if len(known) == len(r.live) {
		r.dirty = false
	}
}

// Shares returns a copy of the current ownership counts (nil before the
// first recomputation).
func (r *Retuner) Shares() map[int]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dist == nil {
		return nil
	}
	out := make(map[int]int, len(r.dist))
	for wid, n := range r.dist {
		out[wid] = n
	}
	return out
}

// Retunes counts distribution recomputations.
func (r *Retuner) Retunes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retunes
}

// Rate returns the current tokens/sec estimate for a worker (0 if
// unobserved).
func (r *Retuner) Rate(wid int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.speed[wid]
}

// proportionalShares splits nTok over wids, whose rates must all be
// positive, by the largest-remainder method: each worker gets the floor
// of its exact share nTok·v/Σv, and the leftover tokens go to the
// largest fractional parts, ties to the lower id.
func proportionalShares(nTok int, wids []int, speed map[int]float64) map[int]int {
	var sum float64
	for _, wid := range wids {
		sum += speed[wid]
	}
	out := make(map[int]int, len(wids))
	type frac struct {
		wid int
		f   float64
	}
	fracs := make([]frac, 0, len(wids))
	assigned := 0
	for _, wid := range wids {
		exact := float64(nTok) * speed[wid] / sum
		n := int(exact)
		out[wid] = n
		assigned += n
		fracs = append(fracs, frac{wid, exact - float64(n)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].wid < fracs[j].wid
	})
	for i := 0; assigned < nTok; i++ {
		out[fracs[i%len(fracs)].wid]++
		assigned++
	}
	return out
}

// Package elastic is Fela's live-membership layer: it lets workers
// join, leave gracefully (drain), or be evicted in the middle of a
// real-time training session, and re-tunes the token distribution
// online whenever membership changes.
//
// The package supplies the policy half of elasticity — the rt engine
// owns the mechanics (join/leave protocol, barrier application, token
// reclamation). A Controller implements rt.MembershipPolicy: it bounds
// admission with MaxWorkers, refuses to evict below MinWorkers, honors
// every drain (a graceful leave is a planned death and can no more be
// refused than a crash), and owns the Retuner that, on every scale
// event, gives each live worker a share of the tokens proportional to
// its measured token rate.
//
// This is the runtime half of the paper's elastic-tuning story: the
// offline warm-up search (internal/tuning) finds a near-optimal
// configuration for a fixed cluster; the Controller keeps the token
// distribution matched to the cluster while the cluster itself
// changes, the direction explored by Chicle (Kaufmann et al.) and
// elastic deep learning in multi-tenant GPU clusters (Wu et al.).
package elastic

import (
	"fmt"
	"sync"

	"fela/internal/obs"
	"fela/internal/rt"
)

// Config bounds a Controller.
type Config struct {
	// MinWorkers is the eviction floor: the controller never evicts a
	// worker when doing so would leave fewer than MinWorkers live.
	// Voluntary drains and deaths are outside its control and may still
	// undercut it. Default 1.
	MinWorkers int
	// MaxWorkers caps admission: pending joins beyond it stay pending
	// (they are offered again at every barrier). 0 means unbounded.
	MaxWorkers int
}

func (c Config) validate() error {
	if c.MinWorkers < 0 || c.MaxWorkers < 0 {
		return fmt.Errorf("elastic: worker bounds must not be negative")
	}
	if c.MaxWorkers > 0 && c.MinWorkers > c.MaxWorkers {
		return fmt.Errorf("elastic: min workers %d exceeds max workers %d", c.MinWorkers, c.MaxWorkers)
	}
	return nil
}

// Controller is the membership policy driving an elastic session. It is
// safe for concurrent use: the coordinator calls AtBarrier and
// Distribution from its goroutine while operators call RequestEvict
// from theirs.
type Controller struct {
	cfg     Config
	retuner *Retuner

	mu       sync.Mutex
	evictQ   []int
	barriers int
	reg      *obs.Registry
}

// NewController builds a membership controller.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MinWorkers == 0 {
		cfg.MinWorkers = 1
	}
	return &Controller{cfg: cfg, retuner: NewRetuner()}, nil
}

// RequestEvict queues a coordinator-initiated removal of wid, applied
// at the next barrier that can spare it (never below MinWorkers).
func (c *Controller) RequestEvict(wid int) {
	c.mu.Lock()
	c.evictQ = append(c.evictQ, wid)
	c.mu.Unlock()
}

// Retuner exposes the online re-tuner for inspection.
func (c *Controller) Retuner() *Retuner { return c.retuner }

// Barriers counts the iteration barriers observed.
func (c *Controller) Barriers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.barriers
}

// AtBarrier implements rt.MembershipPolicy: feed the re-tuner the live
// timing signal, admit joiners up to MaxWorkers, honor every pending
// drain, and apply queued evictions down to MinWorkers.
func (c *Controller) AtBarrier(info rt.BarrierInfo) rt.Decision {
	c.retuner.Observe(info.Iter, info.IterTime, info.TokensByWorker)

	var dec rt.Decision
	live := len(info.Live)

	dec.AdmitJoins = info.PendingJoins
	if c.cfg.MaxWorkers > 0 && live+dec.AdmitJoins > c.cfg.MaxWorkers {
		dec.AdmitJoins = c.cfg.MaxWorkers - live
		if dec.AdmitJoins < 0 {
			dec.AdmitJoins = 0
		}
	}
	live += dec.AdmitJoins

	// Drains are voluntary: a worker that announced a leave has already
	// stopped training, so deferring it buys nothing — complete them
	// all. (Its tokens were reclaimed when the leave was announced.)
	dec.CompleteLeaves = info.PendingLeaves

	c.mu.Lock()
	c.barriers++
	var keep []int
	liveSet := make(map[int]bool, len(info.Live))
	for _, wid := range info.Live {
		liveSet[wid] = true
	}
	for _, wid := range c.evictQ {
		if !liveSet[wid] {
			continue // already gone (death, drain, or duplicate request)
		}
		if live-1 < c.cfg.MinWorkers {
			keep = append(keep, wid) // retry once the session grows
			continue
		}
		dec.Evict = append(dec.Evict, wid)
		liveSet[wid] = false
		live--
	}
	c.evictQ = keep
	c.observeDecision(info.Iter, rtDecisionCounts{
		admits: dec.AdmitJoins,
		leaves: len(dec.CompleteLeaves),
		evicts: len(dec.Evict),
		defers: (info.PendingJoins - dec.AdmitJoins) + len(keep),
	})
	c.mu.Unlock()
	return dec
}

// Distribution implements rt.MembershipPolicy by delegating to the
// online re-tuner.
func (c *Controller) Distribution(nTok int, live []int) []int {
	return c.retuner.Distribution(nTok, live)
}

package jobs

import (
	"sync"

	"fela/internal/rt"
)

// jobPolicy is the per-job rt.MembershipPolicy the manager installs in
// each coordinator. It delegates the elastic verdict (admissions,
// drains, evictions, token re-tuning) to the job's own
// elastic.Controller and layers the multi-tenant concern on top:
// manager-requested releases become Reassign entries at the next
// barrier, and every barrier's live stats stream back to the manager's
// event loop.
//
// AtBarrier runs on the coordinator goroutine; requestRelease runs on
// the manager goroutine — the mutex covers the handoff.
type jobPolicy struct {
	jobID int
	min   int
	ctrl  rt.MembershipPolicy
	m     *Manager

	mu sync.Mutex
	// release is the manager's outstanding release budget: how many
	// workers it still wants this job to give up.
	release int
	// asked holds wids already sent a reassign request, until they
	// vanish from the live set (drain announced, drain completed, or
	// died mid-drain — the ledger self-heals either way).
	asked map[int]bool
}

func newJobPolicy(jobID, min int, ctrl rt.MembershipPolicy, m *Manager) *jobPolicy {
	return &jobPolicy{jobID: jobID, min: min, ctrl: ctrl, m: m, asked: map[int]bool{}}
}

// AtBarrier implements rt.MembershipPolicy.
func (p *jobPolicy) AtBarrier(info rt.BarrierInfo) rt.Decision {
	dec := p.ctrl.AtBarrier(info)

	p.mu.Lock()
	live := make(map[int]bool, len(info.Live))
	for _, wid := range info.Live {
		live[wid] = true
	}
	for wid := range p.asked {
		if !live[wid] {
			delete(p.asked, wid)
		}
	}
	// Convert release budget into migration requests (the pure planning
	// lives in planReleases, where the property tests replay it).
	picks, remaining := planReleases(info.Live, p.asked, p.release, p.min)
	dec.Reassign = append(dec.Reassign, picks...)
	p.release = remaining
	pending := p.release + len(p.asked)
	p.mu.Unlock()

	tokens := 0
	for _, n := range info.TokensByWorker {
		tokens += n
	}
	p.m.push(evBarrier{
		jobID:        p.jobID,
		iter:         info.Iter,
		live:         len(info.Live),
		pendingJoins: info.PendingJoins,
		pending:      pending,
		iterTime:     info.IterTime,
		tokens:       tokens,
	})
	return dec
}

// Distribution implements rt.MembershipPolicy.
func (p *jobPolicy) Distribution(nTok int, live []int) []int {
	return p.ctrl.Distribution(nTok, live)
}

// requestRelease asks the job to give up n more workers at upcoming
// barriers.
func (p *jobPolicy) requestRelease(n int) {
	p.mu.Lock()
	p.release += n
	p.mu.Unlock()
}

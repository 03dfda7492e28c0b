package jobs

// The manager's durability integration, one fold over its ledger.
// Every scheduling decision — a submission or its rejection, a job
// start, a lease grant or release, a barrier-committed checkpoint, a
// cancellation, a settlement, a drain — is a durable.Entry. The live
// manager appends the entry (with Config.Durable set) and then applies
// it; a restarting manager applies the replayed entries in order. So
// apply is the only code that turns a decision into restorable state,
// and a restart rebuilds what the previous incarnation had decided.
//
// Checkpoints follow store-before-ledger order: a job's coordinator
// saves the frame, then appends its OpBarrier, so a replayed barrier
// always has its checkpoint on disk. After the replay, reopen re-queues
// every open job with zero leases (pool workers re-register through
// their own reconnect loops); a started job resumes from its latest
// checkpoint. Because gradients aggregate in canonical token order, a
// resumed job's final model is bit-identical to an uninterrupted run.

import (
	"fmt"
	"time"

	"fela/internal/durable"
	"fela/internal/rt"
)

// commit stamps a decision's entry, appends it to the ledger (blocking
// until it is fsynced) and applies it once the ledger holds it.
// Submission intake uses it directly: a submission the ledger cannot
// take is refused.
func (m *Manager) commit(e durable.Entry) error {
	if e.TS == 0 {
		e.TS = time.Now().UnixNano()
	}
	if p := m.cfg.Durable; p != nil && p.Ledger != nil {
		var err error
		if e, err = p.Ledger.Append(e); err != nil {
			return err
		}
	}
	m.apply(e)
	return nil
}

// decide is commit for every other decision: the manager keeps
// scheduling when the ledger cannot take the entry (availability over
// durability), the miss lands in the flight recorder, and the decision
// is applied anyway. A restart then simply replays less.
func (m *Manager) decide(e durable.Entry) {
	if e.TS == 0 {
		e.TS = time.Now().UnixNano()
	}
	if err := m.commit(e); err != nil {
		m.recordFlight("ledger.error", e.JobID, err.Error())
		m.apply(e)
	}
}

// apply folds one ledger entry into the manager's restorable state:
// the job table and arrival order, each job's state, times and last
// checkpoint, the queue counts and backlog, the settled-job counters,
// the SLO burn window, the lease ledger and the id high-water mark.
// Actions — sends, coordinator starts and stops, telemetry, replies —
// stay with the decision that took them.
func (m *Manager) apply(e durable.Entry) {
	for cur := m.nextID.Load(); int64(e.JobID) > cur; cur = m.nextID.Load() {
		if m.nextID.CompareAndSwap(cur, int64(e.JobID)) {
			break
		}
	}
	at := time.Unix(0, e.TS)
	j := m.jobs[e.JobID]
	switch e.Op {
	case durable.OpSubmit:
		j = &job{id: e.JobID, spec: e.Spec, slo: e.SLO, state: stateQueued, submitted: at, iter: -1, ckptIter: -1}
		m.jobs[j.id] = j
		m.led.add(j.id)
		m.idx[j.id] = len(m.order)
		m.order = append(m.order, j)
		m.infos = append(m.infos, JobInfo{
			ID: j.id, Seq: len(m.order) - 1, Priority: j.spec.Priority,
			Min: j.spec.MinWorkers, Max: j.spec.MaxWorkers,
		})
		m.nQueued++
		m.backlog += specTokens(j.spec)
	case durable.OpReject:
		// A rejection is an SLO miss the submitter experienced: it burns
		// the pool's budget just like a blown deadline.
		m.rejected++
		m.sloWin.Observe(false, at)
	case durable.OpJobStart:
		if j == nil {
			break
		}
		// A job a restart re-queued starts again later in the ledger.
		if j.state == stateQueued {
			m.nQueued--
			m.nRunning++
		}
		j.state = stateRunning
		j.started = at
		m.led.start(j.id, e.N)
		m.refreshInfo(j)
	case durable.OpLeaseGrant:
		if j == nil {
			break
		}
		for range e.N {
			m.led.lease(j.id)
		}
		m.refreshInfo(j)
	case durable.OpLeaseRelease:
		if j == nil {
			break
		}
		m.led.requestRelease(j.id, e.N)
		m.refreshInfo(j)
	case durable.OpBarrier:
		if j != nil {
			j.ckptIter = e.Iter
		}
	case durable.OpCancel:
		// Cancellations are the submitter's choice and burn no budget.
		if j == nil {
			break
		}
		j.canceled = true
		m.canceled++
		m.settle(j, at)
	case durable.OpJobDone:
		if j == nil {
			break
		}
		m.sloWin.Observe(e.OK, at)
		m.settle(j, at)
	case durable.OpJoin, durable.OpLeave, durable.OpDrain:
		// Membership and drains restore nothing: pool workers re-register
		// through their own reconnect loops, and a restarted manager
		// serves again.
	}
	if m.applied != nil {
		m.applied(m, e)
	}
}

// settle moves a job from the schedule to the completed tail.
func (m *Manager) settle(j *job, at time.Time) {
	if j.state == stateRunning {
		m.nRunning--
	} else {
		m.nQueued--
	}
	j.state = stateDone
	j.finished = at
	if j.started.IsZero() {
		j.started = at
	}
	if work := specTokens(j.spec) - j.tokensDone; work > 0 {
		m.backlog = max(m.backlog-work, 0)
	}
	delete(m.jobs, j.id)
	m.led.drop(j.id)
	if i, ok := m.idx[j.id]; ok {
		m.order = append(m.order[:i], m.order[i+1:]...)
		m.infos = append(m.infos[:i], m.infos[i+1:]...)
		delete(m.idx, j.id)
		for k := i; k < len(m.order); k++ {
			m.idx[m.order[k].id] = k
			m.infos[k].Seq = k
		}
	}
	m.doneTail = append(m.doneTail, j)
	if len(m.doneTail) > 16 {
		m.doneTail = m.doneTail[len(m.doneTail)-16:]
	}
	m.finished++
}

// reopen runs once after NewManager has applied a replayed ledger
// ending at lastSeq: every job still open goes back to the queue with
// zero leases, and a started one loads its latest checkpoint. The
// store commits before the ledger barrier, so that checkpoint is at or
// past the ledger's last barrier — resuming from either is
// bit-identical.
func (m *Manager) reopen(lastSeq uint64) {
	open := append([]*job(nil), m.order...)
	for _, j := range open {
		started := j.state == stateRunning
		if started {
			m.nRunning--
			m.nQueued++
			j.state = stateQueued
		}
		m.led.drop(j.id)
		m.led.add(j.id)
		m.refreshInfo(j)
		if started && m.cfg.Durable.Store != nil {
			m.resume(j)
		}
		if j.state == stateDone {
			continue
		}
		detail := "fresh"
		if j.resume != nil {
			detail = fmt.Sprintf("ckpt_iter=%d", j.ckptIter)
		}
		m.recordFlight("restore.job", j.id, detail)
	}
	if len(open) > 0 {
		m.markPool("restore")
	}
	m.recordFlight("restore.done", -1,
		fmt.Sprintf("open=%d finished=%d last_seq=%d", len(m.order), m.finished, lastSeq))
}

// resume loads a restored job's latest checkpoint into its rt.Resume.
// A checkpoint that already covers the final iteration settles the
// job instead: the crash ate only its acknowledgement.
func (m *Manager) resume(j *job) {
	j.ckptIter = -1
	ckpt, err := m.cfg.Durable.Store.Load(j.id)
	switch {
	case err != nil:
		// A corrupt checkpoint is real bit rot; the job restarts from
		// scratch rather than from damaged state.
		m.recordFlight("restore.ckpt_error", j.id, err.Error())
	case ckpt == nil:
		// Crashed before the first barrier committed.
	case ckpt.Iter+1 >= j.spec.Iterations:
		m.settleRestored(j, ckpt)
	default:
		j.resume = &rt.Resume{Iter: ckpt.Iter, Params: ckpt.Params, Vel: ckpt.Vel, Losses: ckpt.Losses}
		j.iter = ckpt.Iter
		j.ckptIter = ckpt.Iter
		j.tokensDone = (ckpt.Iter + 1) * (j.spec.TotalBatch / j.spec.TokenBatch)
		m.backlog -= j.tokensDone
	}
}

// settleRestored finishes a job whose final checkpoint committed
// before the crash: the model is rebuilt from the checkpoint and the
// settlement the crash ate is appended. The original submitter's
// connection died with the old process; OnJobDone is the delivery path
// that survives, and the loop makes that call once it runs.
func (m *Manager) settleRestored(j *job, ckpt *durable.Checkpoint) {
	var res *rt.Result
	mk, err := buildNet(j.spec)
	if err == nil {
		net := mk()
		if err = rt.InstallFlat(net.Params(), ckpt.Params); err == nil {
			res = &rt.Result{Params: net.Params(), Losses: ckpt.Losses}
		}
	}
	j.iter = ckpt.Iter
	j.ckptIter = ckpt.Iter
	j.res, j.err = res, err
	now := time.Now()
	ok := err == nil && (j.slo == 0 || now.Sub(j.submitted) <= j.slo)
	m.decide(durable.Entry{Op: durable.OpJobDone, JobID: j.id, WID: -1, OK: ok, Detail: "restored complete", TS: now.UnixNano()})
	m.recordFlight("restore.complete", j.id, fmt.Sprintf("iter=%d", ckpt.Iter))
	m.restored = append(m.restored, JobResult{
		ID: j.id, Spec: j.spec, SLO: j.slo, Result: res, Err: err,
		Runtime: j.finished.Sub(j.started),
	})
}

// durableRTHooks attaches checkpoint persistence and resume state to
// one job's session config. The loop applies each committed barrier
// (evCkpt).
func (m *Manager) durableRTHooks(j *job, cfg *rt.Config) {
	cfg.Resume = j.resume
	p := m.cfg.Durable
	if p == nil || p.Store == nil || p.Ledger == nil {
		return
	}
	cfg.CheckpointEvery = m.cfg.CheckpointEvery
	cfg.Checkpoint = CheckpointHook(p, j.id, func(e durable.Entry) { m.push(evCkpt{entry: e}) })
}

// CheckpointHook is the rt.Config.Checkpoint hook that commits job
// jobID's checkpoints through p, store before ledger: the frame is
// saved, then its OpBarrier lands in the ledger, so a replayed barrier
// always finds its checkpoint on disk. committed, when non-nil, gets
// each barrier entry the ledger took. The hook runs on the
// coordinator's goroutine, and a failed commit aborts the session: the
// coordinator must never run ahead of state it claims is durable.
func CheckpointHook(p *durable.Plane, jobID int, committed func(durable.Entry)) func(int, [][]float32, [][]float32, []float64) error {
	return func(iter int, params, vel [][]float32, losses []float64) error {
		c := &durable.Checkpoint{JobID: jobID, Iter: iter, Params: params, Vel: vel, Losses: losses}
		if err := p.Store.Save(c); err != nil {
			return err
		}
		e, err := p.Ledger.Append(durable.Entry{Op: durable.OpBarrier, JobID: jobID, WID: -1, Iter: iter})
		if err == nil && committed != nil {
			committed(e)
		}
		return err
	}
}

package jobs

// The manager's durability integration. With Config.Ledger set, every
// scheduling decision is appended to the write-ahead ledger before it
// is acknowledged: submissions (and their rejections), job starts,
// lease grants and releases, barrier-committed checkpoints,
// cancellations, settlements and drains. With Config.Store set, each
// job's coordinator persists an iteration-boundary checkpoint through
// the store-before-ledger commit order (Save, then the OpBarrier
// entry), so a replayed barrier always has its checkpoint on disk.
//
// Restore inverts the ledger: NewManager(cfg with Restore) re-queues
// every job the crash left open — started jobs resume from their
// latest checkpoint, queued ones start fresh — continues the id
// counter past everything ever assigned, and carries the settled-job
// counters and SLO burn-window samples. Because gradients aggregate
// in canonical token order, a resumed job's final model is
// bit-identical to an uninterrupted run of the same spec.

import (
	"fmt"
	"time"

	"fela/internal/durable"
	"fela/internal/rt"
)

// appendWAL lands one decision in the durable ledger, blocking until
// it is fsynced. A nil ledger makes it a no-op. Callers on the ack
// path (submission intake, checkpoint barriers) propagate the error;
// everything else goes through walOr.
func (m *Manager) appendWAL(e durable.Entry) error {
	if m.cfg.Ledger == nil {
		return nil
	}
	_, err := m.cfg.Ledger.Append(e)
	return err
}

// walOr appends a decision best-effort: on failure the manager keeps
// scheduling (availability over durability for non-admission
// decisions) and the miss lands in the flight recorder. The restore
// path tolerates a ledger that ends early — it simply replays less.
func (m *Manager) walOr(e durable.Entry) {
	if err := m.appendWAL(e); err != nil {
		m.recordFlight("ledger.error", e.JobID, err.Error())
	}
}

// durableRTHooks attaches checkpoint persistence and resume state to
// one job's session config. The checkpoint hook runs on the job
// coordinator's goroutine: the store commits first, then the barrier
// lands in the ledger, then the loop learns about it (evCkpt) for
// /statusz. A failed commit aborts the session — the coordinator
// must never run ahead of state it claims is durable.
func (m *Manager) durableRTHooks(j *job, cfg *rt.Config) {
	cfg.Resume = j.resume
	if m.cfg.Store == nil {
		return
	}
	cfg.CheckpointEvery = m.cfg.CheckpointEvery
	id := j.id
	cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
		c := &durable.Checkpoint{JobID: id, Iter: iter, Params: params, Vel: vel, Losses: losses}
		if err := m.cfg.Store.Save(c); err != nil {
			return err
		}
		if err := m.appendWAL(durable.Entry{Op: durable.OpBarrier, JobID: id, WID: -1, Iter: iter}); err != nil {
			return err
		}
		m.push(evCkpt{jobID: id, iter: iter})
		return nil
	}
}

// restore rebuilds the manager from a reduced ledger. Runs inside
// NewManager before the loop starts, so it may mutate loop-owned
// state directly.
func (m *Manager) restore(st *durable.State) {
	if st.NextID > 1 {
		m.nextID.Store(int64(st.NextID - 1))
	}
	// The reducer counts cancellations separately; the manager's
	// finished counter includes them (every cancellation also settles
	// through finishJob).
	m.finished = st.Finished + st.Canceled
	m.rejected = st.Rejected
	m.canceled = st.Canceled
	for _, s := range st.SLOSamples {
		m.sloWin.Observe(s.OK, s.At)
	}
	for i := range st.Jobs {
		m.restoreJob(&st.Jobs[i])
	}
	if len(st.Jobs) > 0 {
		m.markPool("restore")
	}
	m.recordFlight("restore.done", -1,
		fmt.Sprintf("open=%d finished=%d last_seq=%d", len(st.Jobs), st.Finished, st.LastSeq))
}

// restoreJob re-queues one open job from the crash. A started job
// loads its latest checkpoint: the store commits before the ledger
// barrier, so the checkpoint on disk is at or past the ledger's
// CkptIter — resuming from either is bit-identical. A checkpoint that
// already covers the final iteration settles the job immediately; the
// crash ate only its acknowledgement.
func (m *Manager) restoreJob(jr *durable.JobRestore) {
	j := &job{
		id:        jr.ID,
		spec:      jr.Spec,
		slo:       jr.SLO,
		state:     stateQueued,
		submitted: jr.Submitted,
		iter:      -1,
		ckptIter:  -1,
	}
	if jr.Started && m.cfg.Store != nil {
		switch ckpt, err := m.cfg.Store.Load(jr.ID); {
		case err != nil:
			// A corrupt checkpoint is real bit rot; the job restarts from
			// scratch rather than from damaged state.
			m.recordFlight("restore.ckpt_error", jr.ID, err.Error())
		case ckpt == nil:
			// Crashed before the first barrier committed.
		case ckpt.Iter+1 >= jr.Spec.Iterations:
			m.settleRestored(j, ckpt)
			return
		default:
			j.resume = &rt.Resume{Iter: ckpt.Iter, Params: ckpt.Params, Vel: ckpt.Vel, Losses: ckpt.Losses}
			j.iter = ckpt.Iter
			j.ckptIter = ckpt.Iter
		}
	}
	m.jobs[j.id] = j
	m.led.add(j.id)
	m.idx[j.id] = len(m.order)
	m.order = append(m.order, j)
	m.infos = append(m.infos, JobInfo{
		ID: j.id, Seq: len(m.order) - 1, Priority: j.spec.Priority,
		Min: j.spec.MinWorkers, Max: j.spec.MaxWorkers,
	})
	m.nQueued++
	if j.ckptIter >= 0 {
		j.tokensDone = (j.ckptIter + 1) * (j.spec.TotalBatch / j.spec.TokenBatch)
	}
	m.backlog += specTokens(j.spec) - j.tokensDone
	detail := "fresh"
	if j.resume != nil {
		detail = fmt.Sprintf("ckpt_iter=%d", j.ckptIter)
	}
	m.recordFlight("restore.job", j.id, detail)
}

// settleRestored finishes a job whose final checkpoint committed
// before the crash: the model is rebuilt from the checkpoint, the
// settlement the crash ate is appended, and the job lands straight in
// the completed tail. The original submitter's connection died with
// the old process; OnJobDone is the delivery path that survives.
func (m *Manager) settleRestored(j *job, ckpt *durable.Checkpoint) {
	var res *rt.Result
	mk, err := buildNet(j.spec)
	if err == nil {
		net := mk()
		if err = rt.InstallFlat(net.Params(), ckpt.Params); err == nil {
			res = &rt.Result{Params: net.Params(), Losses: ckpt.Losses}
		}
	}
	j.state = stateDone
	j.started = j.submitted
	j.finished = time.Now()
	j.iter = ckpt.Iter
	j.ckptIter = ckpt.Iter
	j.res, j.err = res, err
	ok := err == nil && (j.slo == 0 || j.finished.Sub(j.submitted) <= j.slo)
	m.walOr(durable.Entry{Op: durable.OpJobDone, JobID: j.id, WID: -1, OK: ok, Detail: "restored complete"})
	m.finished++
	m.sloWin.Observe(ok, j.finished)
	m.doneTail = append(m.doneTail, j)
	m.recordFlight("restore.complete", j.id, fmt.Sprintf("iter=%d", ckpt.Iter))
	if m.cfg.OnJobDone != nil {
		m.cfg.OnJobDone(JobResult{
			ID: j.id, Spec: j.spec, SLO: j.slo, Result: res, Err: err,
			Runtime: j.finished.Sub(j.started),
		})
	}
}

package jobs

import (
	"errors"
	"testing"
	"time"

	"fela/internal/durable"
	"fela/internal/transport"
)

// durableConfig is testConfig plus a durability plane.
func durableConfig(p *durable.Plane) Config {
	cfg := testConfig(FairShare{})
	cfg.Durable = p
	cfg.CheckpointEvery = 2
	return cfg
}

// waitCkpt polls /statusz until job id reports a committed checkpoint
// at or past minIter — also the assertion that the checkpoint age
// column the stat CLI renders is fed.
func waitCkpt(t *testing.T, m *Manager, id, minIter int) JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Status(); st != nil {
			for _, js := range st.Jobs {
				if js.ID == id && js.CkptIter >= minIter {
					return js
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached checkpoint iter %d (status %+v)", id, minIter, m.Status())
	return JobStatus{}
}

// TestManagerCrashRecovery is the multi-tenant restart-and-resume
// proof: several jobs with different specs, SLOs and lease states are
// mid-flight when the manager "crashes" (its durability plane is
// severed at an arbitrary point, then the process state is discarded).
// A second manager restores from the replayed ledger and the
// checkpoint store, fresh pool workers attach through the normal join
// path, and every job finishes bit-identical to its uninterrupted
// solo reference.
func TestManagerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	plane1, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(durableConfig(plane1))
	slow := PoolWorkerOptions{TokenDelay: func(iter, wid int) time.Duration { return 3 * time.Millisecond }}
	wait1 := startPool(t, mgr1, 4, slow)
	waitIdle(t, mgr1, 4)

	specA := transport.JobSpec{Name: "a", Model: "mlp-small", Seed: 11, Iterations: 40, MinWorkers: 1, MaxWorkers: 2}
	specB := transport.JobSpec{Name: "b", Model: "mlp-wide", Seed: 22, Iterations: 40, MinWorkers: 1, MaxWorkers: 2}
	specC := transport.JobSpec{Name: "c", Model: "mlp-small", Seed: 33, Iterations: 4, MinWorkers: 1, MaxWorkers: 1}
	specQ := transport.JobSpec{Name: "q", Model: "mlp-small", Seed: 44, Iterations: 6, MinWorkers: 5}

	idA, _, err := mgr1.SubmitJob(specA, SubmitOptions{SLO: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := mgr1.SubmitJob(specB, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idC, chC, err := mgr1.SubmitJob(specC, SubmitOptions{SLO: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Q's floor exceeds the 4-worker pool: it stays queued across the
	// crash and must restore fresh (no checkpoint to resume from).
	idQ, _, err := mgr1.SubmitJob(specQ, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// C settles before the crash — its OpJobDone is in the ledger and
	// its finished count must carry across the restart.
	resC := awaitResult(t, chC, "c")
	mustMatchReference(t, resC, "c")

	// Both long jobs must have committed at least two checkpoints, and
	// the /statusz rows must surface the iteration and the age.
	jsA := waitCkpt(t, mgr1, idA, 3)
	waitCkpt(t, mgr1, idB, 3)
	if jsA.CkptAgeSeconds <= 0 {
		t.Fatalf("job %d checkpoint age not surfaced: %+v", idA, jsA)
	}
	// A and B run with live leases at the crash, within the pool; Q
	// waits for a floor the pool cannot meet.
	held := 0
	for _, js := range pollStatus(t, mgr1, func(st *PoolStatus) bool { return st.Running == 2 }).Jobs {
		switch js.ID {
		case idA, idB:
			if js.State != "running" || js.Workers < 1 {
				t.Fatalf("job %d lease state at the crash: %+v", js.ID, js)
			}
			held += js.Workers
		case idQ:
			if js.State != "queued" || js.Workers != 0 {
				t.Fatalf("queued job %d at the crash: %+v", js.ID, js)
			}
		}
	}
	if held > 4 {
		t.Fatalf("leases exceed the pool at the crash: %d > 4", held)
	}

	// Crash: sever the durability plane first — nothing that happens in
	// this process afterwards reaches the ledger, exactly as if the
	// process had died here — then dismantle the in-process residue.
	plane1.Close()
	mgr1.Cancel(idA)
	mgr1.Cancel(idB)
	mgr1.Cancel(idQ)
	mgr1.Stop()
	select {
	case <-mgr1.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("mgr1 did not drain")
	}
	wait1()

	// Restart: the restored manager must show C settled and A, B, Q
	// open in arrival order — A and B with their checkpoints, all three
	// re-queued with no leases (workers re-register on their own).
	// Restored jobs have no surviving submitter connection, so
	// OnJobDone is the delivery path.
	plane2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan JobResult, 8)
	cfg2 := durableConfig(plane2)
	cfg2.OnJobDone = func(r JobResult) { results <- r }
	mgr2 := NewManager(cfg2)
	st := mgr2.Status()
	if st.Completed != 1 || st.Canceled != 0 || st.Rejected != 0 || st.SLOBurn5m != 0 || st.SLOBurn1h != 0 {
		t.Fatalf("settled counters after crash: %+v", st)
	}
	open := openJobs(st)
	if len(open) != 3 || open[0].ID != idA || open[1].ID != idB || open[2].ID != idQ {
		t.Fatalf("open jobs after crash: %+v", st.Jobs)
	}
	for _, js := range open {
		if js.State != "queued" || js.Workers != 0 {
			t.Fatalf("job %d restored with leases: %+v", js.ID, js)
		}
	}
	for _, js := range open[:2] {
		if js.CkptIter < 3 || js.Iter != js.CkptIter {
			t.Fatalf("job %d resumes from iteration %d (checkpoint %d), want >= 3", js.ID, js.Iter, js.CkptIter)
		}
	}
	if open[2].CkptIter != -1 || open[2].Iter != -1 {
		t.Fatalf("queued job restored as started: %+v", open[2])
	}
	wait2 := startPool(t, mgr2, 6, slow)

	// A brand-new submission must continue the id sequence past
	// everything the ledger ever assigned.
	idN, _, err := mgr2.SubmitJob(specC, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if idN != 5 {
		t.Fatalf("post-restore submission got id %d, want 5", idN)
	}

	byID := map[int]JobResult{}
	for len(byID) < 4 {
		select {
		case r := <-results:
			byID[r.ID] = r
		case <-time.After(60 * time.Second):
			t.Fatalf("only %d of 4 jobs finished after restore: %v", len(byID), byID)
		}
	}
	for _, id := range []int{idA, idB, idQ, idN} {
		r, ok := byID[id]
		if !ok {
			t.Fatalf("job %d never settled after restore", id)
		}
		mustMatchReference(t, r, r.Spec.Name)
	}

	// Status is a snapshot the manager republishes at most every 20 ms,
	// and OnJobDone fires before the republish: wait for the last
	// completion to show instead of counting on the reference
	// computations above to take longer than that.
	for deadline := time.Now().Add(5 * time.Second); mgr2.Status().Completed != 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	if st2 := mgr2.Status(); st2.Completed != 5 {
		t.Fatalf("Completed = %d after restore, want 5 (1 carried + 4 run)", st2.Completed)
	}
	stopAndWait(t, mgr2, wait2)
	plane2.Close()

	// The second incarnation's ledger must settle everything and end in
	// a deliberate drain.
	plane3, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane3.Close()
	final, next := replay(t, plane3.Entries)
	if n := len(plane3.Entries); n == 0 || plane3.Entries[n-1].Op != durable.OpDrain {
		t.Fatal("second incarnation's ledger does not end in a drain")
	}
	if final.Queued+final.Running != 0 || final.Completed != 5 || next != 6 {
		t.Fatalf("final ledger state: %+v, next id %d", final, next)
	}
	_ = idC
}

// TestManagerRestoreCompleteCheckpoint: a job whose final-iteration
// checkpoint committed but whose settlement never reached the ledger
// (the crash ate the acknowledgement) settles immediately on restore,
// from the checkpoint, without re-running anything.
func TestManagerRestoreCompleteCheckpoint(t *testing.T) {
	spec, err := NormalizeSpec(transport.JobSpec{Name: "done", Model: "mlp-small", Iterations: 4, MinWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plane, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []durable.Entry{
		{Op: durable.OpSubmit, JobID: 1, WID: -1, Spec: spec, SLO: time.Hour},
		{Op: durable.OpJobStart, JobID: 1, WID: -1, N: 1},
		{Op: durable.OpBarrier, JobID: 1, WID: -1, Iter: 3},
	} {
		if _, err := plane.Ledger.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// A synthetic final checkpoint with the preset's exact tensor
	// shapes: the restored result must carry these bytes verbatim.
	mk, _, err := BuildSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	var params, vel [][]float32
	for ti, ts := range mk().Params() {
		p := make([]float32, ts.Len())
		v := make([]float32, ts.Len())
		for k := range p {
			p[k] = float32(ti+1) + float32(k)*0.001
			v[k] = -float32(k) * 0.002
		}
		params = append(params, p)
		vel = append(vel, v)
	}
	losses := []float64{0.9, 0.7, 0.6, 0.55}
	ckpt := &durable.Checkpoint{JobID: 1, Iter: 3, Params: params, Vel: vel, Losses: losses}
	if err := plane.Store.Save(ckpt); err != nil {
		t.Fatal(err)
	}
	plane.Close()

	plane2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan JobResult, 1)
	cfg := durableConfig(plane2)
	cfg.OnJobDone = func(r JobResult) { results <- r }
	m := NewManager(cfg)

	r := awaitResult(t, results, "done")
	if r.ID != 1 || r.Err != nil {
		t.Fatalf("restored-complete settlement: %+v", r)
	}
	for i, ts := range r.Result.Params {
		for k, v := range ts.Data {
			if v != params[i][k] {
				t.Fatalf("param tensor %d[%d] = %v, want the checkpoint's %v", i, k, v, params[i][k])
			}
		}
	}
	for i, l := range losses {
		if r.Result.Losses[i] != l {
			t.Fatalf("loss[%d] = %v, want %v", i, r.Result.Losses[i], l)
		}
	}
	pst := m.Status()
	if pst.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", pst.Completed)
	}
	found := false
	for _, js := range pst.Jobs {
		if js.ID == 1 && js.State == "done" && js.CkptIter == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("settled job missing from status tail: %+v", pst.Jobs)
	}
	m.Stop()
	<-m.Done()
	plane2.Close()

	plane3, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane3.Close()
	final, next := replay(t, plane3.Entries)
	if final.Completed != 1 || final.Queued+final.Running != 0 || next != 2 {
		t.Fatalf("settlement never reached the new ledger: %+v, next id %d", final, next)
	}
}

// TestManagerSubmitRefusedWhenLedgerDead: the write-ahead discipline —
// a submission whose OpSubmit cannot land on disk is refused, never
// half-accepted.
func TestManagerSubmitRefusedWhenLedgerDead(t *testing.T) {
	plane, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	plane.Ledger.Close()
	cfg := durableConfig(plane)
	m := NewManager(cfg)
	_, ch, err := m.SubmitJob(transport.JobSpec{Name: "x", Iterations: 4}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitResult(t, ch, "x")
	if !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("submission on a dead ledger settled with %v, want ErrRejected", res.Err)
	}
	m.Stop()
	<-m.Done()
}

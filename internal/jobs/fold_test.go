package jobs

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"fela/internal/durable"
	"fela/internal/transport"
)

// restorable is the part of a manager's status a restart keeps: the
// settled counters, the burn windows, and the open jobs in arrival
// order. Running-vs-queued and lease widths are left out — a restart
// re-queues every open job with no leases on purpose — and so are the
// training progress fields a barrier report moves without a ledger
// entry (iteration, rate, backlog).
type restorable struct {
	Completed, Rejected, Canceled int
	Burn5m, Burn1h                float64
	Open                          []restorableJob
}

type restorableJob struct {
	ID                                   int
	Name, Model                          string
	Priority, Min, Max, Iterations, Ckpt int
	SLOSeconds                           float64
}

func openJobs(st *PoolStatus) []JobStatus {
	var open []JobStatus
	for _, js := range st.Jobs {
		if js.State != string(stateDone) {
			open = append(open, js)
		}
	}
	return open
}

func restorableOf(st *PoolStatus) restorable {
	r := restorable{
		Completed: st.Completed, Rejected: st.Rejected, Canceled: st.Canceled,
		Burn5m: st.SLOBurn5m, Burn1h: st.SLOBurn1h,
	}
	for _, js := range openJobs(st) {
		r.Open = append(r.Open, restorableJob{
			ID: js.ID, Name: js.Name, Model: js.Model,
			Priority: js.Priority, Min: js.MinWorkers, Max: js.MaxWorkers,
			Iterations: js.Iterations, Ckpt: js.CkptIter, SLOSeconds: js.SLOSeconds,
		})
	}
	return r
}

// replay restores a manager from entries alone — a plane with no
// ledger and no store, so nothing is written and no checkpoint is
// loaded — and returns its status and the id its next submission would
// get. The manager is torn down before replay returns.
func replay(t *testing.T, entries []durable.Entry) (*PoolStatus, int) {
	t.Helper()
	m := NewManager(Config{Durable: &durable.Plane{Entries: entries}})
	st, next := m.Status(), int(m.nextID.Load())+1
	for _, js := range openJobs(st) {
		m.Cancel(js.ID)
	}
	m.Stop()
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("replayed manager did not drain")
	}
	return st, next
}

// ent builds a ledger entry stamped now, so its SLO verdicts land in
// the burn windows.
func ent(op durable.Op, jobID int, mut ...func(*durable.Entry)) durable.Entry {
	e := durable.Entry{Op: op, JobID: jobID, WID: -1, TS: time.Now().UnixNano()}
	for _, f := range mut {
		f(&e)
	}
	return e
}

// TestManagerRestoreBurnWindow: rejections burn SLO budget on the live
// manager, and a manager restored from its ledger reports the same
// rejected count and burn rates.
func TestManagerRestoreBurnWindow(t *testing.T) {
	dir := t.TempDir()
	plane, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(plane)
	cfg.Admission = rejectAll{}
	m := NewManager(cfg)
	const n = 3
	for i := 0; i < n; i++ {
		_, ch, err := m.SubmitJob(transport.JobSpec{Name: "refused", Iterations: 4}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res := awaitResult(t, ch, "refused"); !errors.Is(res.Err, ErrRejected) {
			t.Fatalf("submission %d settled with %v, want ErrRejected", i, res.Err)
		}
	}
	live := pollStatus(t, m, func(st *PoolStatus) bool { return st.Rejected == n })
	if live.SLOBurn5m <= 0 || live.SLOBurn1h <= 0 {
		t.Fatalf("rejections did not burn budget: %+v", live)
	}
	stopAndWait(t, m, func() {})
	plane.Close()

	plane2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane2.Close()
	m2 := NewManager(durableConfig(plane2))
	got := m2.Status()
	if got.Rejected != live.Rejected || got.SLOBurn5m != live.SLOBurn5m || got.SLOBurn1h != live.SLOBurn1h {
		t.Fatalf("restored rejected=%d burn5m=%v burn1h=%v, live rejected=%d burn5m=%v burn1h=%v",
			got.Rejected, got.SLOBurn5m, got.SLOBurn1h, live.Rejected, live.SLOBurn5m, live.SLOBurn1h)
	}
	stopAndWait(t, m2, func() {})
}

// rejectNamed refuses exactly the submissions with one name.
type rejectNamed string

func (r rejectNamed) Name() string { return "reject-" + string(r) }
func (r rejectNamed) Admit(a ArrivalInfo) (bool, string) {
	return a.Spec.Name != string(r), "named for refusal"
}

// TestManagerRestoreFold checks the ledger fold: a manager restored from
// a ledger reports what that ledger decided. The hand-written cases pin
// the fold of each op; the scripted case runs a live manager through
// every op the manager appends and, after each entry it applies,
// compares it with a manager restored from that ledger prefix.
func TestManagerRestoreFold(t *testing.T) {
	spec := transport.JobSpec{Name: "a", Model: "mlp-small", Iterations: 20}
	objective := defaultSLOObjective // the burn rate divides at run time
	burn := 2.0 / 3 / (1 - objective)
	cases := []struct {
		name    string
		entries []durable.Entry
		want    restorable
		next    int
	}{
		{name: "empty-ledger", next: 1},
		{
			name: "open-jobs-and-leases",
			entries: []durable.Entry{
				ent(durable.OpSubmit, 1, func(e *durable.Entry) { e.Spec = spec; e.SLO = time.Minute }),
				ent(durable.OpSubmit, 2, func(e *durable.Entry) { e.Spec = spec }),
				ent(durable.OpJobStart, 1, func(e *durable.Entry) { e.N = 2 }),
				ent(durable.OpLeaseGrant, 1, func(e *durable.Entry) { e.N = 2 }),
				ent(durable.OpLeaseRelease, 1, func(e *durable.Entry) { e.N = 1 }),
				ent(durable.OpBarrier, 1, func(e *durable.Entry) { e.Iter = 9 }),
			},
			want: restorable{Open: []restorableJob{
				{ID: 1, Name: "a", Model: "mlp-small", Iterations: 20, Ckpt: 9, SLOSeconds: 60},
				{ID: 2, Name: "a", Model: "mlp-small", Iterations: 20, Ckpt: -1},
			}},
			next: 3,
		},
		{
			// Settled ids still advance the counter, so a restarted
			// manager never reuses a checkpointed id. One good finish,
			// one miss and one rejection: the miss fraction is 2/3.
			name: "settled-jobs-drop-and-count",
			entries: []durable.Entry{
				ent(durable.OpSubmit, 1),
				ent(durable.OpSubmit, 2),
				ent(durable.OpSubmit, 3),
				ent(durable.OpReject, 4, func(e *durable.Entry) { e.Detail = "queue full" }),
				ent(durable.OpJobStart, 1, func(e *durable.Entry) { e.N = 2 }),
				ent(durable.OpJobDone, 1, func(e *durable.Entry) { e.OK = true }),
				ent(durable.OpCancel, 2),
				ent(durable.OpJobDone, 3, func(e *durable.Entry) { e.OK = false }),
			},
			want: restorable{Completed: 3, Rejected: 1, Canceled: 1, Burn5m: burn, Burn1h: burn},
			next: 5,
		},
		{
			// Settling jobs splices the arrival order: entries after the
			// splice must still reach the right job.
			name: "drop-keeps-submit-order",
			entries: []durable.Entry{
				ent(durable.OpSubmit, 1),
				ent(durable.OpSubmit, 2),
				ent(durable.OpSubmit, 3),
				ent(durable.OpSubmit, 4),
				ent(durable.OpJobDone, 2, func(e *durable.Entry) { e.OK = true }),
				ent(durable.OpCancel, 1),
				ent(durable.OpJobStart, 4, func(e *durable.Entry) { e.N = 1 }),
				ent(durable.OpLeaseGrant, 4, func(e *durable.Entry) { e.N = 1 }),
				ent(durable.OpBarrier, 4, func(e *durable.Entry) { e.Iter = 2 }),
			},
			want: restorable{Completed: 2, Canceled: 1, Open: []restorableJob{
				{ID: 3, Ckpt: -1}, {ID: 4, Ckpt: 2},
			}},
			next: 5,
		},
		{
			name: "workers-never-negative",
			entries: []durable.Entry{
				ent(durable.OpSubmit, 1),
				ent(durable.OpJobStart, 1, func(e *durable.Entry) { e.N = 1 }),
				ent(durable.OpLeaseRelease, 1, func(e *durable.Entry) { e.N = 5 }),
			},
			want: restorable{Open: []restorableJob{{ID: 1, Ckpt: -1}}},
			next: 2,
		},
		{
			// Membership and drains restore nothing: the restarted
			// manager serves again.
			name: "drain-and-membership",
			entries: []durable.Entry{
				ent(durable.OpJoin, 0, func(e *durable.Entry) { e.WID = 3 }),
				ent(durable.OpLeave, 0, func(e *durable.Entry) { e.WID = 3 }),
				ent(durable.OpDrain, 0),
			},
			next: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, next := replay(t, c.entries)
			if got := restorableOf(st); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("restored %+v\nwant     %+v", got, c.want)
			}
			if next != c.next {
				t.Fatalf("next id %d, want %d", next, c.next)
			}
			if st.Workers != 0 {
				t.Fatalf("restored manager holds %d workers, want 0", st.Workers)
			}
		})
	}

	// The fold reads exactly what the ledger replays: append, reopen,
	// restore.
	t.Run("round-trip-through-ledger", func(t *testing.T) {
		dir := t.TempDir()
		p, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wide := transport.JobSpec{Name: "rt", Model: "mlp-wide", Iterations: 12}
		for _, e := range []durable.Entry{
			{Op: durable.OpSubmit, JobID: 1, WID: -1, Spec: wide, SLO: 10 * time.Second},
			{Op: durable.OpJobStart, JobID: 1, WID: -1, N: 2},
			{Op: durable.OpBarrier, JobID: 1, WID: -1, Iter: 4},
			{Op: durable.OpSubmit, JobID: 2, WID: -1, Spec: wide},
		} {
			if _, err := p.Ledger.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		p, err = durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		st, next := replay(t, p.Entries)
		want := restorable{Open: []restorableJob{
			{ID: 1, Name: "rt", Model: "mlp-wide", Iterations: 12, Ckpt: 4, SLOSeconds: 10},
			{ID: 2, Name: "rt", Model: "mlp-wide", Iterations: 12, Ckpt: -1},
		}}
		if got := restorableOf(st); !reflect.DeepEqual(got, want) || next != 3 {
			t.Fatalf("restored %+v next %d\nwant     %+v next 3", got, next, want)
		}
		// The submit timestamp survives the replay: queue wait counts
		// from it, not from the epoch.
		if w := openJobs(st)[0].QueueWaitSeconds; w < 0 || w > 60 {
			t.Fatalf("queue wait %vs after replay: submit timestamp lost", w)
		}
	})

	t.Run("scripted", testScriptedFold)
}

// appliedView is the live manager's restorable status right after it
// applied one entry.
type appliedView struct {
	entry durable.Entry
	view  restorable
}

// testScriptedFold drives a live, durable manager through every op it
// appends — join, submit, reject, start, grant, release, barrier, done,
// cancel while queued and while running, drain — recording its status
// after each apply. It then restores a manager from every ledger prefix
// the live manager had applied exactly, and requires the same status.
func testScriptedFold(t *testing.T) {
	dir := t.TempDir()
	plane, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(plane)
	cfg.Admission = rejectNamed("refused")
	var (
		mu    sync.Mutex
		views []appliedView
	)
	m := newManager(cfg, func(m *Manager, e durable.Entry) {
		m.publish()
		v := restorableOf(m.Status())
		mu.Lock()
		views = append(views, appliedView{entry: e, view: v})
		mu.Unlock()
	})
	slow := PoolWorkerOptions{TokenDelay: func(iter, wid int) time.Duration { return 3 * time.Millisecond }}
	wait1 := startPool(t, m, 1, slow)
	waitIdle(t, m, 1)

	idA, chA, err := m.SubmitJob(transport.JobSpec{Name: "a", Seed: 1, Iterations: 2000, MinWorkers: 1, MaxWorkers: 2}, SubmitOptions{SLO: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	_, chR, err := m.SubmitJob(transport.JobSpec{Name: "refused", Iterations: 4}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, chR, "refused"); !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("refused job settled with %v", res.Err)
	}
	idQ, chQ, err := m.SubmitJob(transport.JobSpec{Name: "q", Iterations: 4, MinWorkers: 5}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(idQ)
	if res := awaitResult(t, chQ, "q"); !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("queued cancel settled with %v", res.Err)
	}

	// A second worker is leased to A; B's arrival then takes it back.
	wait2 := startPool(t, m, 1, slow)
	pollStatus(t, m, func(st *PoolStatus) bool {
		for _, js := range st.Jobs {
			if js.ID == idA && js.Workers == 2 {
				return true
			}
		}
		return false
	})
	_, chB, err := m.SubmitJob(transport.JobSpec{Name: "b", Seed: 2, Iterations: 6, MinWorkers: 1, MaxWorkers: 1}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatchReference(t, awaitResult(t, chB, "b"), "b")
	waitCkpt(t, m, idA, 3)
	m.Cancel(idA)
	if res := awaitResult(t, chA, "a"); !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("running cancel settled with %v", res.Err)
	}
	stopAndWait(t, m, func() { wait1(); wait2() })
	plane.Close()

	plane, err = durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	entries := plane.Entries
	mu.Lock()
	defer mu.Unlock()
	if len(views) != len(entries) {
		t.Fatalf("live manager applied %d entries, ledger holds %d", len(views), len(entries))
	}

	// Barriers are appended on the coordinators' goroutines and applied
	// when the loop gets to them, so the live order can run ahead of a
	// barrier; a point is comparable when the applied entries are exactly
	// a ledger prefix. An entry applied at a point that is not is checked
	// at the first comparable point after it, whose prefix holds it — the
	// last point is one, every entry applied — so every entry is checked
	// however the live order fell.
	checked := map[durable.Op]int{}
	var pending []durable.Op // entries applied since the last comparable point
	var last uint64          // the highest seq applied so far
	for i, av := range views {
		last = max(last, av.entry.Seq)
		pending = append(pending, av.entry.Op)
		if last != uint64(i+1) {
			continue
		}
		st, _ := replay(t, entries[:i+1])
		if got := restorableOf(st); !reflect.DeepEqual(got, av.view) {
			t.Fatalf("after entry %d (%s job %d): restored %+v\nlive %+v",
				av.entry.Seq, av.entry.Op, av.entry.JobID, got, av.view)
		}
		for _, op := range pending {
			checked[op]++
		}
		pending = pending[:0]
	}
	for _, op := range []durable.Op{
		durable.OpJoin, durable.OpSubmit, durable.OpReject, durable.OpJobStart,
		durable.OpLeaseGrant, durable.OpLeaseRelease, durable.OpBarrier,
		durable.OpJobDone, durable.OpDrain,
	} {
		if checked[op] == 0 {
			t.Errorf("no %s entry was checked (checked %v)", op, checked)
		}
	}
	if checked[durable.OpCancel] != 2 {
		t.Errorf("checked %d cancels, want the queued and the running one", checked[durable.OpCancel])
	}
}

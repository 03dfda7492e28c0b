package jobs

import (
	"errors"
	"testing"
	"time"

	"fela/internal/transport"
	"fela/internal/workload"
)

// liveTokenDelay is the per-token compute cost the live pool workers
// inject: enough that a token outlasts the protocol around it, so the
// policies' allocations decide who runs, small enough that a case
// finishes in well under a second.
const liveTokenDelay = time.Millisecond

// liveInputs are the arrival sets TestLivePolicies replays: the skewed
// two-job set, a large job that scales with workers beside a one-token
// job that cannot use a second one, both at time 0; and a 16-job
// Poisson trace over the default mix, open loop.
func liveInputs(t *testing.T) []workload.Trace {
	tr, err := workload.Synthesize(workload.Poisson{Rate: 40}, workload.DefaultMix(liveTokenDelay), 16, 4242)
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "poisson16"
	return []workload.Trace{{Name: "two-job", Events: []workload.Event{
		{Spec: transport.JobSpec{Name: "large", Iterations: 8, TotalBatch: 256, TokenBatch: 8, Seed: 0}},
		{Spec: transport.JobSpec{Name: "small", Iterations: 40, TotalBatch: 8, TokenBatch: 8, Seed: 9, Priority: 1}},
	}}, tr}
}

// TestLivePolicies runs a real Manager with four Pair pool workers
// under each allocation policy, OASiS with its admission gate, and
// replays each input against it. Whatever the policy decides, every
// arrival is submitted and settles exactly once, the manager's own
// ledger agrees with the settlements (admitted = completed + failed,
// admitted + rejected = submitted), only the admission gate rejects,
// and every completed job consumed worker-iterations and is
// bit-identical to its solo Reference.
func TestLivePolicies(t *testing.T) {
	cases := []struct {
		name      string
		policy    AllocPolicy
		admission AdmissionPolicy
	}{
		{"fair-share", FairShare{}, nil},
		{"priority", Priority{}, nil},
		{"throughput-max", &ThroughputMax{}, nil},
		{"oasis", NewOASiS(), NewOASiS()},
	}
	for _, tr := range liveInputs(t) {
		for _, tc := range cases {
			t.Run(tr.Name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := testConfig(tc.policy)
				cfg.Admission = tc.admission
				m := NewManager(cfg)
				wait := startPool(t, m, 4, PoolWorkerOptions{
					TokenDelay: func(int, int) time.Duration { return liveTokenDelay },
				})
				waitIdle(t, m, 4)

				var chans []<-chan JobResult
				submitted := workload.Replay(tr, 1, nil, func(e workload.Event) {
					_, ch, err := m.SubmitJob(e.Spec, SubmitOptions{SLO: e.SLO})
					if err != nil {
						t.Errorf("%s not submitted: %v", e.Spec.Name, err)
						return
					}
					chans = append(chans, ch)
				})
				if submitted != len(tr.Events) || len(chans) != len(tr.Events) {
					t.Fatalf("submitted %d (%d accepted by SubmitJob) of %d arrivals", submitted, len(chans), len(tr.Events))
				}

				completed, failed, rejected := 0, 0, 0
				for _, ch := range chans {
					res := awaitResult(t, ch, "arrival")
					switch {
					case errors.Is(res.Err, ErrRejected):
						rejected++
					case res.Err != nil:
						failed++
					default:
						completed++
						if res.WorkerIters <= 0 {
							t.Errorf("%s consumed no worker-iterations", res.Spec.Name)
						}
						mustMatchReference(t, res, res.Spec.Name)
					}
				}
				admitted := completed + failed
				st := pollStatus(t, m, func(st *PoolStatus) bool { return st.Completed+st.Rejected == len(chans) })
				if st.Completed != admitted || st.Rejected != rejected || admitted+rejected != len(chans) {
					t.Errorf("manager settled %d and rejected %d; results: %d completed, %d failed, %d rejected of %d",
						st.Completed, st.Rejected, completed, failed, rejected, len(chans))
				}
				if tc.admission == nil && rejected != 0 {
					t.Errorf("rejected %d jobs with no admission gate", rejected)
				}
				if completed == 0 {
					t.Errorf("no job completed (%d failed, %d rejected)", failed, rejected)
				}
				t.Logf("%d completed, %d failed, %d rejected", completed, failed, rejected)
				stopAndWait(t, m, wait)
				for _, ch := range chans {
					select {
					case res, ok := <-ch:
						if ok {
							t.Errorf("job %d settled twice: second result %+v", res.ID, res)
						}
					default:
					}
				}
			})
		}
	}
}

package jobs

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fela/internal/transport"
)

// countingPolicy wraps an AllocPolicy and counts Allocate calls — the
// probe the no-op-tick regression test and the rebalance benchmarks
// watch.
type countingPolicy struct {
	inner AllocPolicy
	calls atomic.Int64
}

func (p *countingPolicy) Name() string { return p.inner.Name() }

func (p *countingPolicy) Allocate(total int, jobs []JobInfo) map[int]int {
	p.calls.Add(1)
	return p.inner.Allocate(total, jobs)
}

// TestNoopTicksSkipPolicy: once the queue has settled, periodic ticks
// must not call the policy at all — the dirty-set fast path. A worker
// joining afterwards must reopen the gate (the positive control).
func TestNoopTicksSkipPolicy(t *testing.T) {
	pol := &countingPolicy{inner: FairShare{}}
	cfg := testConfig(pol)
	cfg.Tick = 5 * time.Millisecond
	m := NewManager(cfg)

	// Three jobs into an empty pool: they queue, the arrival passes run,
	// and then nothing allocation-relevant changes.
	var chans []<-chan JobResult
	for i := 0; i < 3; i++ {
		ch, err := m.Submit(transport.JobSpec{
			Name: "noop", Iterations: 1, TotalBatch: 16, TokenBatch: 8, MinWorkers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	time.Sleep(50 * time.Millisecond) // let the arrival burst settle
	before := pol.calls.Load()
	if before == 0 {
		t.Fatal("arrivals never reached the policy")
	}
	time.Sleep(250 * time.Millisecond) // ~50 ticks
	if after := pol.calls.Load(); after != before {
		t.Fatalf("clean ticks called the policy %d times (%d -> %d); no-op ticks must skip it",
			after-before, before, after)
	}

	// Positive control: pool membership changes reopen the gate.
	wait := startPool(t, m, 2, PoolWorkerOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for pol.calls.Load() == before && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if pol.calls.Load() == before {
		t.Fatal("a worker join never triggered a rebalance pass")
	}
	for _, ch := range chans {
		if res := awaitResult(t, ch, "noop"); res.Err != nil {
			t.Fatalf("job failed: %v", res.Err)
		}
	}
	stopAndWait(t, m, wait)
}

// benchInfos builds a realistic 1000-job policy view: most jobs
// running with observed rates, a queued tail, arrival-ordered.
func benchInfos(n int) []JobInfo {
	infos := make([]JobInfo, n)
	for i := range infos {
		infos[i] = JobInfo{
			ID: i + 1, Seq: i, Priority: i % 3,
			Started: i%5 != 0, Min: 1, Max: 1 + i%8,
			Workers: i % 4,
			Rate:    float64(100 + i%900),
		}
		if !infos[i].Started {
			infos[i].Workers = 0
		}
	}
	return infos
}

// oldStyleJob mimics the pre-refactor manager's per-job state: the
// info fields behind a per-job mutex (the jobPolicy lock the old
// eff() took during every pass).
type oldStyleJob struct {
	mu      sync.Mutex
	info    JobInfo
	pending int
}

// BenchmarkRebalanceIncremental is the refactored pass at 1000 jobs:
// the cached arrival-ordered info slice goes straight to the policy
// (bySeq detects sorted input and skips the copy+sort).
func BenchmarkRebalanceIncremental(b *testing.B) {
	infos := benchInfos(1000)
	pol := FairShare{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Allocate(1016, infos)
	}
}

// BenchmarkRebalanceFullPass is the pre-refactor pass at the same
// scale: rebuild the info slice from the jobs map every time, taking
// each job's mutex for its pending-release count, then sort by arrival
// inside the policy.
func BenchmarkRebalanceFullPass(b *testing.B) {
	src := benchInfos(1000)
	jobs := make(map[int]*oldStyleJob, len(src))
	for _, in := range src {
		jobs[in.ID] = &oldStyleJob{info: in}
	}
	pol := FairShare{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infos := make([]JobInfo, 0, len(jobs))
		for _, j := range jobs {
			j.mu.Lock()
			in := j.info
			in.Workers -= j.pending
			j.mu.Unlock()
			infos = append(infos, in)
		}
		sort.Slice(infos, func(a, c int) bool { return infos[a].Seq < infos[c].Seq })
		pol.Allocate(1016, infos)
	}
}

// BenchmarkNoopTick is the dirty-set fast path itself: the cost of a
// clean tick at 1000 queued/running jobs (a few flag reads, no policy
// call, no allocation).
func BenchmarkNoopTick(b *testing.B) {
	m := &Manager{
		dirtyJobs: map[int]struct{}{},
		order:     make([]*job, 1000),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.maybeRebalance()
	}
}

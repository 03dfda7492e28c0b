package jobs

import (
	"math"
	"reflect"
	"testing"

	"fela/internal/transport"
)

func TestFairShareAllocate(t *testing.T) {
	fs := FairShare{}
	cases := []struct {
		name  string
		total int
		jobs  []JobInfo
		want  map[int]int
	}{
		{
			name:  "equal split",
			total: 4,
			jobs: []JobInfo{
				{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 4},
				{ID: 2, Seq: 1, Min: 1},
			},
			want: map[int]int{1: 2, 2: 2},
		},
		{
			name:  "remainder to earlier arrival",
			total: 5,
			jobs: []JobInfo{
				{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 3},
				{ID: 2, Seq: 1, Min: 1, Started: true, Workers: 2},
			},
			want: map[int]int{1: 3, 2: 2},
		},
		{
			name:  "cap respected, surplus flows on",
			total: 6,
			jobs: []JobInfo{
				{ID: 1, Seq: 0, Min: 1, Max: 2, Started: true, Workers: 2},
				{ID: 2, Seq: 1, Min: 1, Started: true, Workers: 4},
			},
			want: map[int]int{1: 2, 2: 4},
		},
		{
			name:  "queued job below floor gets zero",
			total: 1,
			jobs: []JobInfo{
				{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 1},
				{ID: 2, Seq: 1, Min: 2},
			},
			want: map[int]int{1: 1, 2: 0},
		},
		{
			name:  "floors first in arrival order",
			total: 3,
			jobs: []JobInfo{
				{ID: 1, Seq: 0, Min: 2, Started: true, Workers: 2},
				{ID: 2, Seq: 1, Min: 2},
			},
			// Job 2's floor of 2 cannot be met after job 1's; the spare
			// worker tops up job 1 rather than half-starting job 2.
			want: map[int]int{1: 3, 2: 0},
		},
	}
	for _, tc := range cases {
		if got := fs.Allocate(tc.total, tc.jobs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Allocate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPriorityAllocate(t *testing.T) {
	p := Priority{}
	// High tier absorbs all spare capacity; the low tier keeps only its
	// floor even though it arrived first.
	got := p.Allocate(6, []JobInfo{
		{ID: 1, Seq: 0, Priority: 0, Min: 1, Started: true, Workers: 3},
		{ID: 2, Seq: 1, Priority: 5, Min: 1, Started: true, Workers: 3},
	})
	want := map[int]int{1: 1, 2: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strict tiers: Allocate = %v, want %v", got, want)
	}
	// Within one tier the split is fair, remainder by arrival.
	got = p.Allocate(5, []JobInfo{
		{ID: 1, Seq: 0, Priority: 1, Min: 1, Started: true, Workers: 2},
		{ID: 2, Seq: 1, Priority: 1, Min: 1, Started: true, Workers: 3},
	})
	want = map[int]int{1: 3, 2: 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-tier fair share: Allocate = %v, want %v", got, want)
	}
	// A capped high tier lets the surplus reach the tier below.
	got = p.Allocate(6, []JobInfo{
		{ID: 1, Seq: 0, Priority: 9, Min: 1, Max: 2, Started: true, Workers: 2},
		{ID: 2, Seq: 1, Priority: 0, Min: 1, Started: true, Workers: 4},
	})
	want = map[int]int{1: 2, 2: 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("capped high tier: Allocate = %v, want %v", got, want)
	}
}

func TestThroughputMaxAllocate(t *testing.T) {
	tm := &ThroughputMax{}

	// A job whose aggregate rate is much higher earns the spare workers:
	// marginal value rate/n beats the slow job's.
	got := tm.Allocate(4, []JobInfo{
		{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 1, Rate: 100},
		{ID: 2, Seq: 1, Min: 1, Started: true, Workers: 1, Rate: 10},
	})
	if got[1] != 3 || got[2] != 1 {
		t.Fatalf("skewed rates: Allocate = %v, want map[1:3 2:1]", got)
	}

	// Hysteresis: a marginal-gain difference inside the band must not
	// move held workers.
	got = tm.Allocate(4, []JobInfo{
		{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 2, Rate: 105},
		{ID: 2, Seq: 1, Min: 1, Started: true, Workers: 2, Rate: 100},
	})
	if got[1] != 2 || got[2] != 2 {
		t.Fatalf("inside band: Allocate = %v, want map[1:2 2:2] (no thrash)", got)
	}

	// Outside the band the worker migrates.
	got = tm.Allocate(4, []JobInfo{
		{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 2, Rate: 300},
		{ID: 2, Seq: 1, Min: 1, Started: true, Workers: 2, Rate: 10},
	})
	if got[1] != 3 || got[2] != 1 {
		t.Fatalf("outside band: Allocate = %v, want map[1:3 2:1]", got)
	}

	// Floors always win: a queued job starts even when the running job's
	// marginals dwarf it.
	got = tm.Allocate(4, []JobInfo{
		{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 4, Rate: 500},
		{ID: 2, Seq: 1, Min: 1},
	})
	if got[2] < 1 {
		t.Fatalf("queued floor: Allocate = %v, want job 2 >= 1", got)
	}
	if got[1]+got[2] > 4 {
		t.Fatalf("over-allocated: %v sums past the pool", got)
	}

	// A job with no rate signal is seeded optimistically, not starved.
	got = tm.Allocate(4, []JobInfo{
		{ID: 1, Seq: 0, Min: 1, Started: true, Workers: 2, Rate: 50},
		{ID: 2, Seq: 1, Min: 1, Started: true, Workers: 2},
	})
	if got[2] < 1 {
		t.Fatalf("unknown rate: Allocate = %v, want job 2 >= 1", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"fair-share", "priority", "throughput-max"} {
		p, ok := PolicyByName(name)
		if !ok || p.Name() != name {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("PolicyByName accepted an unknown policy")
	}
}

func TestNormalizeSpec(t *testing.T) {
	spec, err := NormalizeSpec(transport.JobSpec{Name: "j", Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model != DefaultModel || spec.TotalBatch != 64 || spec.TokenBatch != 8 || spec.LR != 0.05 || spec.MinWorkers != 1 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	// Specs that cannot train must be refused before a lease, not
	// settle later with an rt error (or, for a NaN rate, as a success
	// with NaN losses).
	bad := []transport.JobSpec{
		{},                                   // no iterations
		{Iterations: 5, Model: "nope"},       // unknown preset
		{Iterations: 5, TotalBatch: 65},      // indivisible
		{Iterations: 5, TotalBatch: 1 << 20}, // exceeds dataset
		{Iterations: 5, MinWorkers: 3, MaxWorkers: 2},
		{Iterations: 5, TotalBatch: -64, TokenBatch: 8},
		{Iterations: 5, TotalBatch: 64, TokenBatch: -8},
		{Iterations: 5, TotalBatch: -64, TokenBatch: -8},
		{Iterations: 5, LR: -0.05},
		{Iterations: 5, LR: nan},
		{Iterations: 5, LR: inf},
		{Iterations: 5, LR: -inf},
		{Iterations: 5, Momentum: nan},
		{Iterations: 5, Momentum: inf},
		{Iterations: 5, Momentum: -0.5},
		{Iterations: 5, MaxWorkers: -3},
	}
	for i, s := range bad {
		if _, err := NormalizeSpec(s); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

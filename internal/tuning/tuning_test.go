package tuning

import (
	"testing"

	"fela/internal/gpu"
	"fela/internal/model"
	"fela/internal/partition"
)

func tuneVGG(t *testing.T, batch int) *Result {
	t.Helper()
	m := model.VGG19()
	subs := partition.Partition(m, gpu.DefaultDB(gpu.TeslaK40c()), partition.DefaultBinSize)
	opts := DefaultOptions()
	opts.WarmupIters = 3 // keep tests quick; the paper uses 5
	r, err := Tune(m, subs, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// strictWinner is the configuration the paper's 13-case search picks:
// the first case at the minimal time among the first 13, which is where
// Phase 1's strict < and Phase 2's strict improvement land.
func strictWinner(r *Result) Case {
	best := r.Cases[0]
	for _, c := range r.Cases[:13] {
		if c.IterTime < best.IterTime {
			best = c
		}
	}
	return best
}

// TestThirteenCases verifies the paper's search-space arithmetic: 10
// Phase-1 cases plus 4 Phase-2 subset sizes minus the shared full-subset
// case = 13.
func TestThirteenCases(t *testing.T) {
	r := tuneVGG(t, 128)
	if len(r.Cases) < 13 {
		t.Fatalf("cases = %d, want the paper's 13 first", len(r.Cases))
	}
	p1, p2 := 0, 0
	for i, c := range r.Cases[:13] {
		if c.Index != i {
			t.Errorf("case %d has index %d", i, c.Index)
		}
		switch c.Phase {
		case 1:
			p1++
			if c.SubsetSize != 8 {
				t.Errorf("phase-1 case %d subset = %d, want 8", i, c.SubsetSize)
			}
		case 2:
			p2++
			if c.SubsetSize >= 8 {
				t.Errorf("phase-2 case %d subset = %d, want < 8", i, c.SubsetSize)
			}
		default:
			t.Errorf("case %d has phase %d", i, c.Phase)
		}
		if c.IterTime <= 0 {
			t.Errorf("case %d has non-positive iteration time", i)
		}
	}
	if p1 != 10 || p2 != 3 {
		t.Errorf("phase sizes = %d/%d, want 10/3", p1, p2)
	}
	// Warm-up cost: 3 iterations per measured case.
	if r.WarmupIterations != len(r.Cases)*3 {
		t.Errorf("warm-up iterations = %d, want %d", r.WarmupIterations, len(r.Cases)*3)
	}
}

func TestBestConfigIsMeasuredMinimum(t *testing.T) {
	r := tuneVGG(t, 128)
	// The winning configuration's measured time must be the global
	// minimum among cases matching it.
	best := r.Cases[0].IterTime
	for _, c := range r.Cases {
		if c.IterTime < best {
			best = c.IterTime
		}
	}
	found := false
	for _, c := range r.Cases {
		if c.IterTime == best {
			found = true
			if c.Phase == 1 && r.BestSubset != 8 && !sameWeights(c.Weights, r.BestWeights) {
				t.Errorf("global best is phase-1 %v but tuner chose %v/%d", c.Weights, r.BestWeights, r.BestSubset)
			}
		}
	}
	if !found {
		t.Fatal("no case matches the global minimum")
	}
	// Weights non-decreasing with w1 = 1.
	if r.BestWeights[0] != 1 {
		t.Errorf("best w1 = %d", r.BestWeights[0])
	}
	for i := 1; i < len(r.BestWeights); i++ {
		if r.BestWeights[i] < r.BestWeights[i-1] {
			t.Errorf("best weights not monotone: %v", r.BestWeights)
		}
	}
	if r.BestSubset < 1 || r.BestSubset > 8 {
		t.Errorf("best subset = %d", r.BestSubset)
	}
}

// TestGapsPositive mirrors Fig. 6(b): tuning must matter — the best case
// beats the worst by a clear margin in both phases.
func TestGapsPositive(t *testing.T) {
	for _, batch := range []int{64, 1024} {
		r := tuneVGG(t, batch)
		if r.Phase1Gap <= 0.02 {
			t.Errorf("batch %d: phase-1 gap = %.3f, want meaningful spread", batch, r.Phase1Gap)
		}
		if r.OverallGap < r.Phase1Gap || r.OverallGap < r.Phase2Gap {
			t.Errorf("batch %d: overall gap %.3f smaller than a phase gap", batch, r.OverallGap)
		}
		if r.OverallGap >= 1 {
			t.Errorf("batch %d: overall gap %.3f out of range", batch, r.OverallGap)
		}
	}
}

// TestDifferentBatchesPreferDifferentConfigs reproduces the qualitative
// finding of Fig. 6(a): the optimum moves with the total batch size
// (the paper observed {1,1,4}/subset-1 at batch 64 vs {1,8,8}/subset-8
// at batch 1024); at minimum, small batches must prefer a small
// conditional subset while huge batches tolerate larger FC parallelism.
func TestDifferentBatchesPreferDifferentConfigs(t *testing.T) {
	small := strictWinner(tuneVGG(t, 64))
	large := strictWinner(tuneVGG(t, 1024))
	if small.SubsetSize > large.SubsetSize && sameWeights(small.Weights, large.Weights) {
		t.Errorf("batch 64 chose subset %d > batch 1024 subset %d with equal weights",
			small.SubsetSize, large.SubsetSize)
	}
	// Weight sum should not shrink as batch grows (deeper sub-models
	// can afford larger batches per token).
	if sum(large.Weights) < sum(small.Weights) {
		t.Logf("note: batch-1024 weights %v lighter than batch-64 %v", large.Weights, small.Weights)
	}
}

func TestNormalizedTimes(t *testing.T) {
	r := tuneVGG(t, 128)
	norm := r.NormalizedTimes()
	if len(norm) != len(r.Cases) {
		t.Fatalf("normalized series length %d", len(norm))
	}
	sawZero, sawOne := false, false
	for _, v := range norm {
		if v < 0 || v > 1 {
			t.Errorf("normalized value %v out of [0,1]", v)
		}
		if v == 0 {
			sawZero = true
		}
		if v == 1 {
			sawOne = true
		}
	}
	if !sawZero || !sawOne {
		t.Error("normalization must hit both 0 and 1")
	}
}

func TestPolicyFromResult(t *testing.T) {
	r := &Result{BestSubset: 2}
	p := r.Policy(8)
	if !p.CTD || len(p.CTDSubset) != 2 {
		t.Errorf("policy = %+v, want CTD subset of 2", p)
	}
	r = &Result{BestSubset: 8}
	p = r.Policy(8)
	if p.CTD {
		t.Error("full subset must disable CTD")
	}
	if !p.ADS || !p.HF {
		t.Error("ADS and HF must stay on")
	}
}

func TestTuneValidation(t *testing.T) {
	m := model.VGG19()
	subs := partition.Partition(m, gpu.DefaultDB(gpu.TeslaK40c()), partition.DefaultBinSize)
	opts := DefaultOptions()
	opts.WarmupIters = 0
	if _, err := Tune(m, subs, 128, opts); err == nil {
		t.Error("expected error for zero warm-up iterations")
	}
}

// TestRefinementOnlyImproves: the co-tuning refinement never returns a
// configuration worse than the strict 13-case search's winner.
func TestRefinementOnlyImproves(t *testing.T) {
	for _, batch := range []int{64, 1024} {
		r := tuneVGG(t, batch)
		if minTime(r.Cases) > strictWinner(r).IterTime {
			t.Errorf("batch %d: refinement made the best case worse", batch)
		}
		for _, c := range r.Cases[13:] {
			if c.Phase != 3 {
				t.Errorf("extra case %d has phase %d, want 3", c.Index, c.Phase)
			}
			if c.SubsetSize >= 8 {
				t.Errorf("refinement case %d has full subset", c.Index)
			}
		}
	}
}

func TestDeterministicTuning(t *testing.T) {
	a := tuneVGG(t, 128)
	b := tuneVGG(t, 128)
	if !sameWeights(a.BestWeights, b.BestWeights) || a.BestSubset != b.BestSubset {
		t.Fatalf("tuning not deterministic: %v/%d vs %v/%d",
			a.BestWeights, a.BestSubset, b.BestWeights, b.BestSubset)
	}
	for i := range a.Cases {
		if a.Cases[i].IterTime != b.Cases[i].IterTime {
			t.Fatalf("case %d times differ", i)
		}
	}
}

func sameWeights(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestRefinementCaseStructure pins the shape of the Phase-3 refinement:
// it fires only when the strict winner's FC weight is below the maximum,
// adds exactly one case per strict conditional subset size, and every
// extra case carries the maximal FC weight with a still-valid
// (non-decreasing) weight vector.
func TestRefinementCaseStructure(t *testing.T) {
	r := tuneVGG(t, 128)
	var extra []Case
	for _, c := range r.Cases {
		if c.Phase == 3 {
			extra = append(extra, c)
		}
	}
	strictBest := r.Cases[0]
	for _, c := range r.Cases[:13] {
		if c.Phase == 1 && c.IterTime < strictBest.IterTime {
			strictBest = c
		}
	}
	maxW := 8 // testbed has N=8 workers
	if strictBest.Weights[len(strictBest.Weights)-1] == maxW {
		if len(extra) != 0 {
			t.Fatalf("refinement ran although the FC weight is already maximal: %v", extra)
		}
		t.Skip("strict winner already maximal; refinement correctly skipped")
	}
	// One refinement case per strict conditional subset (sizes 4, 2, 1).
	if len(extra) != 3 {
		t.Fatalf("refinement cases = %d, want 3", len(extra))
	}
	seen := map[int]bool{}
	for _, c := range extra {
		w := c.Weights
		if w[len(w)-1] != maxW {
			t.Errorf("refinement case %d FC weight = %d, want %d", c.Index, w[len(w)-1], maxW)
		}
		for i := 1; i < len(w); i++ {
			if w[i] < w[i-1] {
				t.Errorf("refinement case %d weights %v not non-decreasing", c.Index, w)
			}
		}
		for i := 0; i < len(w)-1; i++ {
			if w[i] != strictBest.Weights[i] {
				t.Errorf("refinement case %d changed a non-FC weight: %v vs winner %v", c.Index, w, strictBest.Weights)
			}
		}
		if seen[c.SubsetSize] {
			t.Errorf("duplicate refinement subset size %d", c.SubsetSize)
		}
		seen[c.SubsetSize] = true
	}
}

// TestRefinedBestIsMeasured: after refinement, the chosen configuration
// must be one of the measured cases and must achieve the minimal
// measured time.
func TestRefinedBestIsMeasured(t *testing.T) {
	for _, batch := range []int{64, 128, 1024} {
		r := tuneVGG(t, batch)
		best := minTime(r.Cases)
		found := false
		for _, c := range r.Cases {
			if sameWeights(c.Weights, r.BestWeights) && c.SubsetSize == r.BestSubset {
				found = true
				if c.IterTime != best {
					t.Errorf("batch %d: chosen case time %v != measured minimum %v", batch, c.IterTime, best)
				}
			}
		}
		if !found {
			t.Errorf("batch %d: best config %v/%d was never measured", batch, r.BestWeights, r.BestSubset)
		}
		if r.WarmupIterations != len(r.Cases)*3 {
			t.Errorf("batch %d: warm-up accounting %d != %d cases x 3 iters", batch, r.WarmupIterations, len(r.Cases))
		}
	}
}

// TestRefinementLeavesPaperStatsAlone: the Fig. 6(b) gap statistics are
// defined over the paper's 13 cases, and those cases are exactly the
// strict search's: each is a fresh measurement of its configuration,
// unperturbed by the refinement that follows them.
func TestRefinementLeavesPaperStatsAlone(t *testing.T) {
	r := tuneVGG(t, 128)
	paper := r.Cases[:13]
	winner := paper[0]
	for _, c := range paper[:10] {
		if c.IterTime < winner.IterTime {
			winner = c
		}
	}
	if r.Phase1Gap != gap(paper[:10]) || r.Phase2Gap != gap(append([]Case{winner}, paper[10:]...)) || r.OverallGap != gap(paper) {
		t.Errorf("gaps %v/%v/%v are not the paper cases' gaps", r.Phase1Gap, r.Phase2Gap, r.OverallGap)
	}
	m := model.VGG19()
	subs := partition.Partition(m, gpu.DefaultDB(gpu.TeslaK40c()), partition.DefaultBinSize)
	opts := DefaultOptions()
	opts.WarmupIters = 3
	for _, c := range paper {
		got, err := measure(m, subs, c.Weights, c.SubsetSize, 128, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.IterTime {
			t.Fatalf("case %d measured %v in the search, %v alone", c.Index, c.IterTime, got)
		}
	}
}

package jobs

import (
	"math"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// fullPresetData is the whole presetSamples-row dataset of a spec: what
// every session built before sessions were trimmed to the rows they read.
func fullPresetData(spec transport.JobSpec) *minidnn.Dataset {
	_, dataSeed := seeds(spec)
	return minidnn.SyntheticBlobs(dataSeed, presetSamples, presetDim, presetClasses)
}

// TestReferenceMatchesFullDataset: training on BuildSession's trimmed
// dataset gives, bit for bit, the model and loss history of training on
// the full preset dataset, for both presets, several seeds, total
// batches from one token to the whole dataset, with and without
// momentum.
func TestReferenceMatchesFullDataset(t *testing.T) {
	for _, model := range []string{"mlp-small", "mlp-wide"} {
		for _, seed := range []int64{0, 1, 12345} {
			for _, b := range []struct{ total, token int }{{8, 8}, {64, 8}, {512, 64}} {
				for _, mom := range []float32{0, 0.9} {
					spec, err := NormalizeSpec(transport.JobSpec{
						Model: model, Seed: seed, Iterations: 3,
						TotalBatch: b.total, TokenBatch: b.token, Momentum: mom,
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := Reference(spec)
					if err != nil {
						t.Fatal(err)
					}
					mk, err := buildNet(spec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := rt.Sequential(mk(), fullPresetData(spec), RTConfig(spec, 1))
					if err != nil {
						t.Fatal(err)
					}
					if !minidnn.ParamsEqual(got.Params, want.Params) {
						t.Fatalf("%+v: params differ from the full-dataset run", spec)
					}
					for i := range want.Losses {
						if math.Float64bits(got.Losses[i]) != math.Float64bits(want.Losses[i]) {
							t.Fatalf("%+v: loss[%d] = %v, want %v", spec, i, got.Losses[i], want.Losses[i])
						}
					}
				}
			}
		}
	}
}

// TestReferenceIsTheSingleSession pins the equivalence felaserver and
// felaworker build on: the default preset at seed 0 is the single
// session, an MLP 16-32-4 drawn from seed 42 trained in tokens of 8 on
// the first 64 rows of the seed-7 blobs at LR 0.05. Its reference is
// bit-identical to Sequential over that network and the 256-row
// dataset the binaries hand-built before.
func TestReferenceIsTheSingleSession(t *testing.T) {
	ref, err := Reference(transport.JobSpec{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.Config{Workers: 1, TotalBatch: 64, TokenBatch: 8, Iterations: 4, LR: 0.05}
	want, err := rt.Sequential(minidnn.NewMLP(42, 16, 32, 4), minidnn.SyntheticBlobs(7, 256, 16, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(ref.Params, want.Params) {
		t.Fatal("the preset's reference diverged from the single session")
	}
	for i, l := range want.Losses {
		if ref.Losses[i] != l {
			t.Fatalf("loss[%d] = %v, want %v", i, ref.Losses[i], l)
		}
	}
}

// TestBuildSessionIsPresetPrefix: BuildSession's rows and labels are the
// first TotalBatch rows of the full preset dataset, and an unnormalized
// spec (TotalBatch 0) still gets all of it.
func TestBuildSessionIsPresetPrefix(t *testing.T) {
	for _, seed := range []int64{0, 1, 12345} {
		for _, rows := range []int{0, 8, 64, 512} {
			spec := transport.JobSpec{Seed: seed, TotalBatch: rows}
			_, ds, err := BuildSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := rows
			if want == 0 {
				want = presetSamples
			}
			full := fullPresetData(spec)
			if ds.Len() != want {
				t.Fatalf("seed %d total batch %d: %d rows, want %d", seed, rows, ds.Len(), want)
			}
			for i, v := range ds.X.Data {
				if math.Float32bits(v) != math.Float32bits(full.X.Data[i]) {
					t.Fatalf("seed %d total batch %d: element %d = %v, want %v", seed, rows, i, v, full.X.Data[i])
				}
			}
			for i, l := range ds.Labels {
				if l != full.Labels[i] {
					t.Fatalf("seed %d total batch %d: label %d = %d, want %d", seed, rows, i, l, full.Labels[i])
				}
			}
		}
	}
}

// serveJobsSpec is the job the serve-jobs benchmark workload submits.
var serveJobsSpec = transport.JobSpec{
	Model: "mlp-small", Seed: 1, Iterations: 4, TotalBatch: 64, TokenBatch: 8, MaxWorkers: 1,
}

// TestNormalizeSpecBuildsNothing: validation runs twice per submission
// (gate and manager), so it must not allocate — building a network or
// dataset to validate a spec cannot creep back.
func TestNormalizeSpecBuildsNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NormalizeSpec(serveJobsSpec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NormalizeSpec allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkNormalizeSpec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NormalizeSpec(serveJobsSpec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolJob is one small job's whole fixed cost: an in-process
// manager and one pool worker over transport.Pair, the serve-jobs spec
// submitted, trained and settled, and the pool drained again.
func BenchmarkPoolJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewManager(Config{})
		done := make(chan error, 1)
		go func() {
			_, err := RunPoolWorker(poolDial(m), PoolWorkerOptions{})
			done <- err
		}()
		_, ch, err := m.SubmitJob(serveJobsSpec, SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res := <-ch; res.Err != nil {
			b.Fatal(res.Err)
		}
		m.Stop()
		<-m.Done()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

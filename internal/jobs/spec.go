// Package jobs is Fela's multi-tenant layer: one JobManager owns a
// pool of workers and a set of concurrent training jobs, each backed by
// its own rt.Coordinator and elastic.Controller. Workers register once
// with the pool; the manager leases them to jobs and migrates them
// between jobs with the existing elastic machinery — a migration is a
// reassign request answered by a normal drain (KindLeave/KindDrainAck)
// out of the donor job, a re-registration with the pool, and a
// KindJoin into the recipient. No new worker-side states exist.
//
// Allocation is pluggable (AllocPolicy): fair-share splits the pool
// equally with the remainder by arrival order, priority serves strict
// tiers with per-tier fair-share, and throughput-max allocates the
// OASiS way — greedily by each job's marginal tokens/sec per added
// worker, estimated from the live EWMA rates the barriers report, with
// a hysteresis band so allocations don't thrash.
//
// Because every job's coordinator aggregates token gradients in
// canonical order, a job's final model is bit-identical to the same
// job trained alone — or sequentially — no matter how often the
// manager migrates its workers (the determinism invariant the chaos
// tests replay migrations against).
package jobs

import (
	"fmt"
	"math"

	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// DefaultModel is the preset used when a spec names none.
const DefaultModel = "mlp-small"

// presets maps a model name to its deterministic builder. Every preset
// shares the dataset shape (512×16, 4 classes) so any TotalBatch up to
// presetSamples is valid.
const (
	presetSamples = 512
	presetDim     = 16
	presetClasses = 4
)

// seeds derives the model-init and dataset seeds from a spec. Seed 0
// keeps the repo-wide defaults (42/7); anything else fans out so two
// jobs with different seeds train genuinely different sessions.
func seeds(spec transport.JobSpec) (netSeed, dataSeed int64) {
	if spec.Seed == 0 {
		return 42, 7
	}
	return spec.Seed, spec.Seed + 101
}

// presetHidden returns a model preset's hidden width; empty names the
// default. It builds nothing, so validation costs no allocation.
func presetHidden(model string) (int, error) {
	switch model {
	case "", "mlp-small":
		return 32, nil
	case "mlp-wide":
		return 64, nil
	}
	return 0, fmt.Errorf("jobs: unknown model preset %q", model)
}

// buildNet resolves a spec's model preset into its network builder
// alone: a coordinator never reads data, so the manager needs no more.
func buildNet(spec transport.JobSpec) (func() *minidnn.Network, error) {
	hidden, err := presetHidden(spec.Model)
	if err != nil {
		return nil, err
	}
	netSeed, _ := seeds(spec)
	return func() *minidnn.Network { return minidnn.NewMLP(netSeed, presetDim, hidden, presetClasses) }, nil
}

// BuildSession resolves a spec's model preset into a network builder
// and dataset, both deterministic functions of the spec — every worker
// and the sequential reference reconstruct identical replicas
// independently. The dataset holds only the rows a session reads,
// [0, TotalBatch): the preset's blobs draw their centers before their
// rows, so these rows are bit-identical to the same prefix of the full
// presetSamples-row dataset. A TotalBatch outside (0, presetSamples]
// (an unnormalized spec) builds all of it.
func BuildSession(spec transport.JobSpec) (func() *minidnn.Network, *minidnn.Dataset, error) {
	mk, err := buildNet(spec)
	if err != nil {
		return nil, nil, err
	}
	_, dataSeed := seeds(spec)
	rows := spec.TotalBatch
	if rows <= 0 || rows > presetSamples {
		rows = presetSamples
	}
	return mk, minidnn.SyntheticBlobs(dataSeed, rows, presetDim, presetClasses), nil
}

// NormalizeSpec fills a spec's defaults and validates it, returning the
// canonical form every other layer (manager, workers, bench baselines)
// derives its session from. It builds neither network nor dataset.
func NormalizeSpec(spec transport.JobSpec) (transport.JobSpec, error) {
	if spec.Model == "" {
		spec.Model = DefaultModel
	}
	if spec.TotalBatch == 0 {
		spec.TotalBatch = 64
	}
	if spec.TokenBatch == 0 {
		spec.TokenBatch = 8
	}
	if spec.LR == 0 {
		spec.LR = 0.05
	}
	if spec.MinWorkers <= 0 {
		spec.MinWorkers = 1
	}
	if _, err := presetHidden(spec.Model); err != nil {
		return spec, err
	}
	if spec.Iterations <= 0 {
		return spec, fmt.Errorf("jobs: iterations must be positive")
	}
	if spec.TotalBatch <= 0 {
		return spec, fmt.Errorf("jobs: total batch %d must be positive", spec.TotalBatch)
	}
	if spec.TokenBatch <= 0 {
		return spec, fmt.Errorf("jobs: token batch %d must be positive", spec.TokenBatch)
	}
	if spec.TotalBatch%spec.TokenBatch != 0 {
		return spec, fmt.Errorf("jobs: token batch %d must divide total batch %d", spec.TokenBatch, spec.TotalBatch)
	}
	if spec.TotalBatch > presetSamples {
		return spec, fmt.Errorf("jobs: total batch %d exceeds the preset dataset (%d samples)", spec.TotalBatch, presetSamples)
	}
	if !finite(spec.LR) || spec.LR <= 0 {
		return spec, fmt.Errorf("jobs: learning rate %v must be finite and positive", spec.LR)
	}
	if !finite(spec.Momentum) || spec.Momentum < 0 {
		return spec, fmt.Errorf("jobs: momentum %v must be finite and non-negative", spec.Momentum)
	}
	if spec.MaxWorkers < 0 {
		return spec, fmt.Errorf("jobs: max workers %d must not be negative", spec.MaxWorkers)
	}
	if spec.MaxWorkers > 0 && spec.MinWorkers > spec.MaxWorkers {
		return spec, fmt.Errorf("jobs: min workers %d exceeds max workers %d", spec.MinWorkers, spec.MaxWorkers)
	}
	return spec, nil
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// specTokens is the total token-gradient count a spec represents —
// iterations × tokens per iteration — the work unit admission control
// and the cluster benchmark budget in.
func specTokens(spec transport.JobSpec) int {
	if spec.TokenBatch <= 0 {
		return 0
	}
	return spec.Iterations * (spec.TotalBatch / spec.TokenBatch)
}

// RTConfig derives the rt session configuration for a normalized spec
// with the given worker count. Telemetry fields are left unset; callers
// attach their own registry/tracer.
func RTConfig(spec transport.JobSpec, workers int) rt.Config {
	return rt.Config{
		Workers:    workers,
		TotalBatch: spec.TotalBatch,
		TokenBatch: spec.TokenBatch,
		Iterations: spec.Iterations,
		LR:         spec.LR,
		Momentum:   spec.Momentum,
	}
}

// Reference runs the spec's sequential reference computation — the
// model a pooled run must match bit-for-bit regardless of migrations.
func Reference(spec transport.JobSpec) (*rt.Result, error) {
	spec, err := NormalizeSpec(spec)
	if err != nil {
		return nil, err
	}
	mk, ds, err := BuildSession(spec)
	if err != nil {
		return nil, err
	}
	return rt.Sequential(mk(), ds, RTConfig(spec, 1))
}

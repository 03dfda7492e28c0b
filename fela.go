// Package fela is the public API of this repository: a faithful
// reimplementation of Fela (Geng, Li, Wang — "Fela: Incorporating
// Flexible Parallelism and Elastic Tuning to Accelerate Large-Scale
// DML", ICDE 2020), together with the substrates its evaluation needs.
//
// The package exposes three layers:
//
//   - The cluster simulator: model zoo, GPU profile repository, offline
//     bin partitioning, the Token Server with the ADS/HF/CTD scheduling
//     policies, the two-phase configuration tuner, the DP/MP/HP
//     baselines, and straggler scenarios. Simulate and Compare run the
//     paper's experiments; the internal/experiments drivers regenerate
//     every table and figure (see cmd/felabench).
//
//   - Real-time training: a token-scheduled BSP trainer with real
//     gradient computation over goroutines or TCP, proving the paper's
//     reproducibility claim bit-for-bit (RTTrain, RTSequential).
//
//   - The underlying pieces re-exported as aliases for downstream use.
//
// See README.md for a quickstart and DESIGN.md for the architecture.
package fela

import (
	"fmt"

	"fela/internal/baseline"
	"fela/internal/cluster"
	"fela/internal/felaengine"
	"fela/internal/gpu"
	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/model"
	"fela/internal/obs"
	"fela/internal/partition"
	"fela/internal/rt"
	"fela/internal/scheduler"
	"fela/internal/straggler"
	"fela/internal/trace"
	"fela/internal/tuning"
)

// Re-exported core types. Aliases keep the internal packages private
// while letting callers name every type the API returns.
type (
	// Model is a neural-network architecture description.
	Model = model.Model
	// Layer is one model layer.
	Layer = model.Layer
	// SubModel is a contiguous partition slice, the unit tokens train.
	SubModel = model.SubModel
	// RunResult is a measured training run (Eq. 3 throughput etc.).
	RunResult = metrics.RunResult
	// Policy selects the ADS/HF/CTD scheduling policies.
	Policy = scheduler.Policy
	// Scenario injects straggler delays.
	Scenario = straggler.Scenario
	// TuningResult is the outcome of the two-phase configuration tuner.
	TuningResult = tuning.Result
	// ClusterConfig describes a testbed to simulate.
	ClusterConfig = cluster.Config
	// Network is a real trainable network for the real-time engine.
	Network = minidnn.Network
	// Dataset is a labelled dataset for the real-time engine.
	Dataset = minidnn.Dataset
	// RTConfig configures real-time token-scheduled training.
	RTConfig = rt.Config
	// RTResult is a real-time training outcome.
	RTResult = rt.Result
	// Trace records simulation events for timeline rendering.
	Trace = trace.Trace
	// Registry is the live-telemetry metric registry (internal/obs).
	Registry = obs.Registry
	// Tracer records distributed spans (internal/obs).
	Tracer = obs.Tracer
)

// VGG19 returns the paper's primary benchmark model.
func VGG19() *Model { return model.VGG19() }

// GoogLeNet returns the paper's second benchmark model.
func GoogLeNet() *Model { return model.GoogLeNet() }

// ModelByName resolves a zoo model ("VGG19", "GoogLeNet", "AlexNet",
// "LeNet-5").
func ModelByName(name string) (*Model, error) { return model.ByName(name) }

// Testbed8 returns the paper's evaluation cluster configuration: 8
// nodes, one Tesla K40c each, 10 Gbps Ethernet.
func Testbed8() ClusterConfig { return cluster.Testbed8() }

// Partition applies the offline bin-partitioned method (§IV-A) with the
// paper's bin size, using the default profile repository for the
// testbed GPU.
func Partition(m *Model) []SubModel {
	return partition.Partition(m, gpu.DefaultDB(gpu.TeslaK40c()), partition.DefaultBinSize)
}

// FullPolicy returns all scheduling policies enabled with the given CTD
// subset size (workers 0..subset-1); subset >= 8 disables CTD.
func FullPolicy(subset, workers int) Policy {
	if subset >= workers {
		return Policy{ADS: true, HF: true}
	}
	ids := make([]int, subset)
	for i := range ids {
		ids[i] = i
	}
	return scheduler.FullFela(ids)
}

// NoStraggler is the non-straggler scenario.
func NoStraggler() Scenario { return straggler.None{} }

// RoundRobinStraggler slows worker (iter mod n) by d seconds each
// iteration (Fig. 9 methodology).
func RoundRobinStraggler(d float64, n int) Scenario { return straggler.RoundRobin{D: d, N: n} }

// ProbabilityStraggler makes every worker a straggler with probability p
// per iteration, slowed by d seconds (Fig. 10 methodology).
func ProbabilityStraggler(p, d float64) Scenario {
	return straggler.Probability{P: p, D: d, Seed: 2020}
}

// SimConfig describes one simulated Fela training run.
type SimConfig struct {
	// Model is the benchmark to train.
	Model *Model
	// TotalBatch is the global batch per iteration.
	TotalBatch int
	// Iterations is the number of BSP iterations (the paper uses 100).
	Iterations int
	// Weights is the per-sub-model parallelism vector; nil runs the
	// two-phase tuner first (§IV-B) and uses its choice.
	Weights []int
	// SubsetSize is the CTD conditional subset size; 0 defers to the
	// tuner (or disables CTD when Weights are given explicitly).
	SubsetSize int
	// Scenario injects stragglers; nil means none.
	Scenario Scenario
	// Staleness > 0 enables the SSP extension (§VI): up to that many
	// earlier iterations may still be synchronizing when the next
	// iteration's tokens start. 0 is strict BSP.
	Staleness int
	// Metrics, when non-nil, receives the Token Server's live telemetry
	// (scheduling-path counters, bucket depth gauges — internal/obs).
	Metrics *Registry
}

// Simulate runs Fela on a fresh 8-node testbed and returns the measured
// result. With nil Weights it first runs the configuration tuner.
func Simulate(cfg SimConfig) (RunResult, error) {
	if cfg.Model == nil {
		return RunResult{}, fmt.Errorf("fela: nil model")
	}
	subs := Partition(cfg.Model)
	ccfg := Testbed8()
	weights := cfg.Weights
	subset := cfg.SubsetSize
	if weights == nil {
		tr, err := Tune(cfg.Model, cfg.TotalBatch)
		if err != nil {
			return RunResult{}, err
		}
		weights = tr.BestWeights
		if subset == 0 {
			subset = tr.BestSubset
		}
	}
	if subset == 0 {
		subset = ccfg.N
	}
	return felaengine.Run(cluster.New(ccfg), felaengine.Config{
		Model:      cfg.Model,
		Subs:       subs,
		Weights:    weights,
		TotalBatch: cfg.TotalBatch,
		Iterations: cfg.Iterations,
		Policy:     FullPolicy(subset, ccfg.N),
		Scenario:   cfg.Scenario,
		Staleness:  cfg.Staleness,
		Metrics:    cfg.Metrics,
	})
}

// SimulateTraced runs like Simulate but also records a schedule trace
// (compute, fetch, sync and sleep events) for timeline rendering.
func SimulateTraced(cfg SimConfig) (RunResult, *Trace, error) {
	if cfg.Model == nil {
		return RunResult{}, nil, fmt.Errorf("fela: nil model")
	}
	tr := &trace.Trace{}
	ccfg := Testbed8()
	weights := cfg.Weights
	subset := cfg.SubsetSize
	if weights == nil {
		t, err := Tune(cfg.Model, cfg.TotalBatch)
		if err != nil {
			return RunResult{}, nil, err
		}
		weights = t.BestWeights
		if subset == 0 {
			subset = t.BestSubset
		}
	}
	if subset == 0 {
		subset = ccfg.N
	}
	res, err := felaengine.Run(cluster.New(ccfg), felaengine.Config{
		Model:      cfg.Model,
		Subs:       Partition(cfg.Model),
		Weights:    weights,
		TotalBatch: cfg.TotalBatch,
		Iterations: cfg.Iterations,
		Policy:     FullPolicy(subset, ccfg.N),
		Scenario:   cfg.Scenario,
		Staleness:  cfg.Staleness,
		Trace:      tr,
		Metrics:    cfg.Metrics,
	})
	return res, tr, err
}

// Tune runs the two-phase runtime configuration tuning (§IV-B) for the
// workload on the 8-node testbed.
func Tune(m *Model, totalBatch int) (*TuningResult, error) {
	return tuning.Tune(m, Partition(m), totalBatch, tuning.DefaultOptions())
}

// Comparison holds the four systems' results for one workload.
type Comparison struct {
	Fela, DP, MP, HP RunResult
}

// Compare runs Fela (tuned) and the three baselines on identical fresh
// testbeds — one Figure 8/9/10 data point.
func Compare(m *Model, totalBatch, iterations int, scen Scenario) (Comparison, error) {
	var out Comparison
	fe, err := Simulate(SimConfig{Model: m, TotalBatch: totalBatch, Iterations: iterations, Scenario: scen})
	if err != nil {
		return out, err
	}
	out.Fela = fe
	bcfg := baseline.Config{Model: m, TotalBatch: totalBatch, Iterations: iterations, Scenario: scen}
	if out.DP, err = baseline.RunDP(cluster.New(Testbed8()), bcfg); err != nil {
		return out, err
	}
	if out.MP, err = baseline.RunMP(cluster.New(Testbed8()), bcfg); err != nil {
		return out, err
	}
	if out.HP, err = baseline.RunHP(cluster.New(Testbed8()), bcfg); err != nil {
		return out, err
	}
	return out, nil
}

// PID computes the per-iteration delay (Eq. 4) of a straggler run
// against its non-straggler baseline.
func PID(stragglerRun, base RunResult) float64 { return metrics.PID(stragglerRun, base) }

// NewMLP builds a real multi-layer perceptron for the real-time engine
// (widths: input, hidden..., classes).
func NewMLP(seed int64, widths ...int) *Network { return minidnn.NewMLP(seed, widths...) }

// SyntheticDataset generates a deterministic blob-classification dataset
// for the real-time engine.
func SyntheticDataset(seed int64, n, dim, classes int) *Dataset {
	return minidnn.SyntheticBlobs(seed, n, dim, classes)
}

// RTTrain runs real token-scheduled BSP training in-process: a
// coordinator plus cfg.Workers goroutine workers, whose conns carry the
// same binary frames as TCP, so a lossy cfg.Compress compresses here
// too.
func RTTrain(seedNet func() *Network, ds *Dataset, cfg RTConfig) (*RTResult, error) {
	return rt.Train(seedNet, ds, cfg)
}

// RTSequential runs the sequential reference computation; RTTrain with
// exact gradients (the default Compress) produces bit-identical
// parameters.
func RTSequential(net *Network, ds *Dataset, cfg RTConfig) (*RTResult, error) {
	return rt.Sequential(net, ds, cfg)
}

// ParamsEqual reports bitwise equality of two real parameter sets.
func ParamsEqual(a, b *RTResult) bool { return minidnn.ParamsEqual(a.Params, b.Params) }

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fela/internal/durable"
	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// durableOverheadEntry measures one checkpoint interval against the
// uncheckpointed baseline on the same simulated-compute workload, as
// interleaved pairs of sessions: each pair runs the two back to back,
// the baseline first in even pairs and second in odd ones, so that both
// see the same load on the host, and its overhead is their difference
// over the baseline. OverheadPct is the median over the pairs, between the
// quartiles OverheadQ1Pct and OverheadQ3Pct; Seconds and
// BaselineSeconds are the two sides' medians.
type durableOverheadEntry struct {
	Every           int     `json:"every"`
	Pairs           int     `json:"pairs"`
	Checkpoints     int     `json:"checkpoints"`
	Seconds         float64 `json:"seconds"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	OverheadPct     float64 `json:"overhead_pct"`
	OverheadQ1Pct   float64 `json:"overhead_q1_pct"`
	OverheadQ3Pct   float64 `json:"overhead_q3_pct"`
}

// durableRecoveryEntry times a cold restart for one model size: open
// the plane (ledger replay), load the latest checkpoint frame, and
// install it into a fresh replica.
type durableRecoveryEntry struct {
	Model     string  `json:"model"`
	Params    int     `json:"params"`
	OpenMS    float64 `json:"open_ms"`
	LoadMS    float64 `json:"load_ms"`
	InstallMS float64 `json:"install_ms"`
	TotalMS   float64 `json:"total_ms"`
}

// durableReplayEntry measures raw ledger throughput: fsynced appends on
// the write side; on the read side, boot-time replay, then the job
// manager's fold of the replayed plane (NewManager).
type durableReplayEntry struct {
	Entries      int     `json:"entries"`
	AppendPerSec float64 `json:"append_per_sec"`
	ReplayPerSec float64 `json:"replay_per_sec"`
	FoldMS       float64 `json:"fold_ms"`
}

// durableBenchReport is the machine-readable BENCH_durable.json payload.
type durableBenchReport struct {
	Name      string                 `json:"name"`
	Quick     bool                   `json:"quick"`
	TimeStamp string                 `json:"timestamp"`
	Overheads []durableOverheadEntry `json:"overheads"`
	// OverheadPctDefault is the median overhead at durable.DefaultEvery;
	// its entry holds the quartiles that say whether it is resolved.
	OverheadPctDefault float64                `json:"overhead_pct_default"`
	Recovery           []durableRecoveryEntry `json:"recovery"`
	Replay             durableReplayEntry     `json:"replay"`
}

func rtBenchNet() *minidnn.Network       { return minidnn.NewMLP(42, 16, 32, 4) }
func rtBenchData() *minidnn.Dataset      { return minidnn.SyntheticBlobs(7, 256, 16, 4) }
func rtSecondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// durableBenchConfig sizes the overhead workload. The per-token delay
// simulates real compute: without it the arithmetic finishes in
// microseconds and every fsync would look catastrophic, which is not
// the regime the paper's iteration times live in.
func durableBenchConfig(quick bool) rt.Config {
	iters := 60
	if quick {
		iters = 20
	}
	return rt.Config{
		Workers:    2,
		TotalBatch: 64,
		TokenBatch: 8,
		Iterations: iters,
		LR:         0.05,
		Delay:      func(int, int) time.Duration { return 2 * time.Millisecond },
	}
}

// runDurableBench measures the durability plane — checkpoint overhead
// vs interval, recovery time vs model size, ledger replay throughput —
// and writes the report as JSON to path.
func runDurableBench(quick bool, path string, out func(string)) error {
	report := durableBenchReport{
		Name:      "durable-plane",
		Quick:     quick,
		TimeStamp: time.Now().UTC().Format(time.RFC3339),
	}
	cfg := durableBenchConfig(quick)
	intervals := []int{1, 2, 5, durable.DefaultEvery, 20}
	pairs := 5
	if quick {
		intervals = []int{1, durable.DefaultEvery}
		pairs = 1
	}
	root, err := os.MkdirTemp("", "felabench-durable-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	for _, every := range intervals {
		entry := durableOverheadEntry{Every: every, Pairs: pairs}
		var base, ckpt, over []float64
		for p := range pairs {
			dir := filepath.Join(root, fmt.Sprintf("every-%d-%d", every, p))
			var b, c float64
			var n int
			if p%2 == 0 {
				if b, err = baselineSession(cfg); err == nil {
					c, n, err = checkpointedSession(cfg, every, dir)
				}
			} else if c, n, err = checkpointedSession(cfg, every, dir); err == nil {
				b, err = baselineSession(cfg)
			}
			if err != nil {
				return err
			}
			base, ckpt, over = append(base, b), append(ckpt, c), append(over, (c-b)/b*100)
			entry.Checkpoints = n
		}
		slices.Sort(base)
		slices.Sort(ckpt)
		slices.Sort(over)
		entry.BaselineSeconds, entry.Seconds = quantile(base, 0.5), quantile(ckpt, 0.5)
		entry.OverheadPct, entry.OverheadQ1Pct, entry.OverheadQ3Pct = quantile(over, 0.5), quantile(over, 0.25), quantile(over, 0.75)
		if every == durable.DefaultEvery {
			report.OverheadPctDefault = entry.OverheadPct
		}
		report.Overheads = append(report.Overheads, entry)
	}

	// Recovery time scales with model size: persist a final checkpoint
	// per preset, then time the cold-restart path (open the plane, load
	// the frame, install it into a fresh replica).
	models := []struct {
		name   string
		hidden int
	}{{"mlp-small", 32}, {"mlp-wide", 128}, {"mlp-xl", 512}}
	for _, m := range models {
		mk := func() *minidnn.Network { return minidnn.NewMLP(42, 16, m.hidden, 4) }
		net := mk()
		nParams := 0
		flat := make([][]float32, 0, len(net.Params()))
		vel := make([][]float32, 0, len(net.Params()))
		for _, t := range net.Params() {
			nParams += t.Len()
			p := make([]float32, t.Len())
			copy(p, t.Data)
			flat = append(flat, p)
			vel = append(vel, make([]float32, t.Len()))
		}
		dir := filepath.Join(root, "recover-"+m.name)
		plane, err := durable.Open(dir, durable.Options{})
		if err != nil {
			return err
		}
		err = plane.Store.Save(&durable.Checkpoint{JobID: 1, Iter: 99, Params: flat, Vel: vel, Losses: make([]float64, 100)})
		if cerr := plane.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("durable bench: persist %s: %w", m.name, err)
		}

		t0 := time.Now()
		plane, err = durable.Open(dir, durable.Options{})
		if err != nil {
			return err
		}
		t1 := time.Now()
		ckpt, err := plane.Store.Load(1)
		if err != nil || ckpt == nil {
			plane.Close()
			return fmt.Errorf("durable bench: reload %s: %v", m.name, err)
		}
		t2 := time.Now()
		fresh := mk()
		if err := rt.InstallFlat(fresh.Params(), ckpt.Params); err != nil {
			plane.Close()
			return err
		}
		t3 := time.Now()
		if err := plane.Close(); err != nil {
			return err
		}
		report.Recovery = append(report.Recovery, durableRecoveryEntry{
			Model: m.name, Params: nParams,
			OpenMS:    t1.Sub(t0).Seconds() * 1e3,
			LoadMS:    t2.Sub(t1).Seconds() * 1e3,
			InstallMS: t3.Sub(t2).Seconds() * 1e3,
			TotalMS:   t3.Sub(t0).Seconds() * 1e3,
		})
	}

	// Ledger throughput: fsynced appends, then boot-time replay + fold.
	// Each job is one whole lifecycle, so the fold opens, leases,
	// checkpoints and settles every job it reads.
	spec, err := jobs.NormalizeSpec(transport.JobSpec{Name: "fold", Model: "mlp-small", Iterations: 40})
	if err != nil {
		return err
	}
	life := []durable.Entry{
		{Op: durable.OpSubmit, Spec: spec},
		{Op: durable.OpJobStart, N: 1},
		{Op: durable.OpLeaseGrant, N: 1},
		{Op: durable.OpBarrier, Iter: spec.Iterations - 1},
		{Op: durable.OpJobDone, OK: true},
	}
	nEntries := 5000
	if quick {
		nEntries = 1000
	}
	ldir := filepath.Join(root, "replay")
	plane, err := durable.Open(ldir, durable.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < nEntries; i++ {
		e := life[i%len(life)]
		e.JobID, e.WID = i/len(life)+1, -1
		if _, err := plane.Ledger.Append(e); err != nil {
			plane.Close()
			return fmt.Errorf("durable bench: append %d: %w", i, err)
		}
	}
	appendSecs := rtSecondsSince(start)
	if err := plane.Close(); err != nil {
		return err
	}
	start = time.Now()
	plane, err = durable.Open(ldir, durable.Options{})
	if err != nil {
		return err
	}
	replaySecs := rtSecondsSince(start)
	got := len(plane.Entries)
	start = time.Now()
	mgr := jobs.NewManager(jobs.Config{Durable: plane})
	foldSecs := rtSecondsSince(start)
	mgr.Stop()
	<-mgr.Done()
	if err := plane.Close(); err != nil {
		return err
	}
	if got != nEntries {
		return fmt.Errorf("durable bench: replayed %d entries, appended %d", got, nEntries)
	}
	report.Replay = durableReplayEntry{
		Entries:      nEntries,
		AppendPerSec: float64(nEntries) / appendSecs,
		ReplayPerSec: float64(nEntries) / replaySecs,
		FoldMS:       foldSecs * 1e3,
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("durable bench: %w", err)
	}
	out(renderDurableBench(report, path))
	return nil
}

// baselineSession runs cfg, the identical session with no durability
// plane, and returns its wall time.
func baselineSession(cfg rt.Config) (float64, error) {
	start := time.Now()
	if _, err := rt.Train(rtBenchNet, rtBenchData(), cfg); err != nil {
		return 0, fmt.Errorf("durable bench: baseline: %w", err)
	}
	return rtSecondsSince(start), nil
}

// checkpointedSession runs cfg with a durability plane in dir that
// checkpoints every every iterations, and returns its wall time and how
// many checkpoints it took.
func checkpointedSession(cfg rt.Config, every int, dir string) (float64, int, error) {
	plane, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return 0, 0, err
	}
	cfg.CheckpointEvery = every
	ckpts := 0
	cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
		if err := plane.Store.Save(&durable.Checkpoint{JobID: 0, Iter: iter, Params: params, Vel: vel, Losses: losses}); err != nil {
			return err
		}
		_, err := plane.Ledger.Append(durable.Entry{Op: durable.OpBarrier, JobID: 0, WID: -1, Iter: iter})
		ckpts++
		return err
	}
	start := time.Now()
	if _, err := rt.Train(rtBenchNet, rtBenchData(), cfg); err != nil {
		plane.Close()
		return 0, 0, fmt.Errorf("durable bench: every=%d: %w", every, err)
	}
	secs := rtSecondsSince(start)
	return secs, ckpts, plane.Close()
}

// renderDurableBench formats the report for the terminal.
func renderDurableBench(r durableBenchReport, path string) string {
	s := fmt.Sprintf("Durability plane (wrote %s)\n", path)
	s += "checkpoint overhead vs interval (medians of interleaved uncheckpointed/checkpointed pairs):\n"
	s += fmt.Sprintf("  %-8s %6s %12s %10s %10s %10s %17s\n", "every", "pairs", "checkpoints", "baseline", "seconds", "overhead", "quartiles")
	for _, e := range r.Overheads {
		s += fmt.Sprintf("  %-8d %6d %12d %9.2fs %9.2fs %9.1f%% %7.1f%% – %5.1f%%\n",
			e.Every, e.Pairs, e.Checkpoints, e.BaselineSeconds, e.Seconds, e.OverheadPct, e.OverheadQ1Pct, e.OverheadQ3Pct)
	}
	s += "cold-restart recovery vs model size:\n"
	s += fmt.Sprintf("  %-10s %10s %9s %9s %10s %9s\n", "model", "params", "open", "load", "install", "total")
	for _, e := range r.Recovery {
		s += fmt.Sprintf("  %-10s %10d %7.2fms %7.2fms %8.2fms %7.2fms\n",
			e.Model, e.Params, e.OpenMS, e.LoadMS, e.InstallMS, e.TotalMS)
	}
	s += fmt.Sprintf("ledger: %d entries, %.0f appends/s (fsynced), %.0f replayed/s, fold %.2fms\n",
		r.Replay.Entries, r.Replay.AppendPerSec, r.Replay.ReplayPerSec, r.Replay.FoldMS)
	return s
}

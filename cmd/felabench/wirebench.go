package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// The wire experiment measures what the report path costs beyond the
// frame codec itself: matmul kernels serial versus parallel, and every
// gradient codec in end-to-end TCP sessions under both kernel modes.
// Encode and decode cost per frame is owned by the transport package's
// BenchmarkCodec* and the bench module's transport.enc_*/dec_* metrics.

// kernelBenchEntry is one matmul shape timed serial (fan-out 1) versus
// parallel (fan-out = GOMAXPROCS). Cores records the machine honestly:
// on a single-core container the speedup is ≈1 by construction and the
// multi-core claim is re-measured where GOMAXPROCS > 1 (CI).
type kernelBenchEntry struct {
	Shape        string  `json:"shape"`
	MACs         int64   `json:"macs"`
	Cores        int     `json:"cores"`
	SerialNsOp   float64 `json:"serial_ns_per_op"`
	ParallelNsOp float64 `json:"parallel_ns_per_op"`
	Speedup      float64 `json:"speedup"`
}

// compressSessionEntry is one (kernel mode × gradient codec) end-to-end
// TCP training session: wire cost of the report path plus the
// convergence price the lossy codec paid.
type compressSessionEntry struct {
	Compression string  `json:"compression"`
	Kernel      string  `json:"kernel"` // "serial" or "parallel"
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	Seconds     float64 `json:"seconds"`
	// ReportBytesPerIter is the decoded grads-section wire bytes per
	// iteration on the coordinator (all workers' reports summed).
	ReportBytesPerIter float64 `json:"report_bytes_per_iter"`
	// RatioVsExact is the exact codec's bytes-per-iter over this one's,
	// within the same kernel mode (1.0 for exact itself).
	RatioVsExact float64 `json:"ratio_vs_exact"`
	FinalLoss    float64 `json:"final_loss"`
	// LossDeltaVsExact is this session's final loss minus the same
	// kernel mode's exact session — the convergence price of quantizing.
	LossDeltaVsExact float64 `json:"loss_delta_vs_exact"`
	// BitIdentical only holds (and is only required) for exact.
	BitIdentical bool `json:"bit_identical"`
}

// wireSummary states the kernel and compression headlines.
type wireSummary struct {
	// Cores is GOMAXPROCS during the run; KernelSpeedup is serial over
	// parallel ns/op at the largest matmul shape (≈1 when Cores == 1).
	Cores         int     `json:"cores"`
	KernelSpeedup float64 `json:"kernel_speedup"`
	// Report-path byte ratios, exact over lossy, parallel-kernel rows.
	FP16ReportRatio float64 `json:"fp16_report_ratio"`
	Int8ReportRatio float64 `json:"int8_report_ratio"`
	TopKReportRatio float64 `json:"topk_report_ratio"`
}

// wireBenchReport is the machine-readable BENCH_wire.json payload.
type wireBenchReport struct {
	Name      string `json:"name"`
	Quick     bool   `json:"quick"`
	TimeStamp string `json:"timestamp"`
	// KernelPath is the inner-loop path the kernels ran on
	// (tensor.KernelPath: "avx2" or "portable").
	KernelPath string                 `json:"kernel_path"`
	Kernels    []kernelBenchEntry     `json:"kernel_micro"`
	Compress   []compressSessionEntry `json:"compress_sessions"`
	Summary    wireSummary            `json:"summary"`
}

// measure times fn over iters runs, after one warm-up call, and returns
// wall ns/op.
func measure(iters int, fn func()) float64 {
	fn()
	runtime.GC()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// benchKernels times MatMul serial (fan-out 1) versus parallel (fan-out
// GOMAXPROCS) at shapes big enough to clear the parallel cutoff. The
// kernels are bit-identical by construction, so only time is measured.
func benchKernels(quick bool) []kernelBenchEntry {
	shapes := [][3]int{{256, 512, 512}, {128, 1024, 1024}}
	iters := 5
	if quick {
		shapes = [][3]int{{96, 256, 256}, {64, 512, 512}}
		iters = 10
	}
	defer tensor.SetParallelism(0)

	var out []kernelBenchEntry
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(11))
		a := tensor.New(m, k).Randn(rng, 1)
		b := tensor.New(k, n).Randn(rng, 1)
		mul := func() { tensor.MatMul(a, b) }

		e := kernelBenchEntry{
			Shape: fmt.Sprintf("%dx%dx%d", m, k, n),
			MACs:  int64(m) * int64(k) * int64(n),
			Cores: runtime.GOMAXPROCS(0),
		}
		tensor.SetParallelism(1)
		e.SerialNsOp = measure(iters, mul)
		tensor.SetParallelism(0)
		e.ParallelNsOp = measure(iters, mul)
		e.Speedup = ratio(e.SerialNsOp, e.ParallelNsOp)
		out = append(out, e)
	}
	return out
}

// runCompressSession trains the shared rt bench workload over real TCP
// with the given gradient codec negotiated on both sides
// and the kernel fan-out fixed to par, and meters the report path
// through the coordinator-side registry.
func runCompressSession(comp transport.Compression, par int, quick bool, ref *rt.Result) (compressSessionEntry, error) {
	cfg := rtBenchConfig(quick)
	cfg.Compress = comp
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	kernel := "parallel"
	if par == 1 {
		kernel = "serial"
	}
	e := compressSessionEntry{
		Compression: comp.String(), Kernel: kernel,
		Workers: cfg.Workers, Iterations: cfg.Iterations,
	}
	tensor.SetParallelism(par)
	defer tensor.SetParallelism(0)

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return e, err
	}
	defer l.Close()

	conns := make([]transport.Conn, cfg.Workers)
	acceptErr := make(chan error, 1)
	go func() {
		for i := range conns {
			c, err := l.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			conns[i] = c
		}
		acceptErr <- nil
	}()
	workerErrs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		wid := wid
		go func() {
			c, err := transport.Dial(l.Addr())
			if err != nil {
				workerErrs <- err
				return
			}
			defer c.Close()
			wCfg := cfg
			wCfg.Metrics = nil // meter on the coordinator side only
			workerErrs <- rt.NewWorker(wid, rtBenchNet(), rtBenchData(), wCfg).Run(c)
		}()
	}
	if err := <-acceptErr; err != nil {
		return e, err
	}

	co, err := rt.NewCoordinator(rtBenchNet(), cfg)
	if err != nil {
		return e, err
	}
	start := time.Now()
	res, err := co.Run(conns)
	if err != nil {
		return e, err
	}
	e.Seconds = time.Since(start).Seconds()
	for i := 0; i < cfg.Workers; i++ {
		if err := <-workerErrs; err != nil {
			return e, err
		}
	}

	var wire int64
	for labels, v := range reg.CounterValues(transport.MetricCompressWireBytes) {
		if strings.Contains(labels, "decode") && strings.Contains(labels, comp.String()) {
			wire += v
		}
	}
	e.ReportBytesPerIter = float64(wire) / float64(cfg.Iterations)
	e.FinalLoss = res.Losses[len(res.Losses)-1]
	e.BitIdentical = minidnn.ParamsEqual(ref.Params, res.Params)
	if comp == transport.CompressExact && !e.BitIdentical {
		return e, fmt.Errorf("exact compression session diverged from the sequential reference")
	}
	return e, nil
}

// runWireBench measures the kernels and the gradient-codec sessions and
// writes the report as JSON to path.
func runWireBench(quick bool, path string, out func(string)) error {
	report := wireBenchReport{
		Name:       "wire-path",
		Quick:      quick,
		TimeStamp:  time.Now().UTC().Format(time.RFC3339),
		KernelPath: tensor.KernelPath(),
	}

	report.Kernels = benchKernels(quick)
	if n := len(report.Kernels); n > 0 {
		report.Summary.Cores = report.Kernels[n-1].Cores
		report.Summary.KernelSpeedup = report.Kernels[n-1].Speedup
	}

	ref, err := rt.Sequential(rtBenchNet(), rtBenchData(), rtBenchConfig(quick))
	if err != nil {
		return fmt.Errorf("wire bench: sequential reference: %w", err)
	}
	// The kernel × codec session matrix: every gradient codec end to end
	// under both kernel modes, with the exact row of each mode as the
	// bytes-per-iter and final-loss baseline.
	codecs := []transport.Compression{
		transport.CompressExact, transport.CompressFP16,
		transport.CompressInt8, transport.CompressTopK,
	}
	for _, par := range []int{1, 0} {
		var exact compressSessionEntry
		for _, comp := range codecs {
			e, err := runCompressSession(comp, par, quick, ref)
			if err != nil {
				return fmt.Errorf("wire bench: %v/%s session: %w", comp, e.Kernel, err)
			}
			if comp == transport.CompressExact {
				exact = e
			}
			e.RatioVsExact = ratio(exact.ReportBytesPerIter, e.ReportBytesPerIter)
			e.LossDeltaVsExact = e.FinalLoss - exact.FinalLoss
			report.Compress = append(report.Compress, e)
			if par == 0 {
				switch comp {
				case transport.CompressFP16:
					report.Summary.FP16ReportRatio = e.RatioVsExact
				case transport.CompressInt8:
					report.Summary.Int8ReportRatio = e.RatioVsExact
				case transport.CompressTopK:
					report.Summary.TopKReportRatio = e.RatioVsExact
				}
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("wire bench: %w", err)
	}
	out(renderWireBench(report, path))
	return nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// renderWireBench formats the report for the terminal.
func renderWireBench(r wireBenchReport, path string) string {
	s := fmt.Sprintf("Wire experiment (wrote %s)\n", path)
	s += fmt.Sprintf("Compute kernels (serial vs parallel matmul, %d core(s))\n", r.Summary.Cores)
	s += fmt.Sprintf("%-14s %14s %14s %8s\n", "shape", "serial-ns/op", "parallel-ns/op", "speedup")
	for _, e := range r.Kernels {
		s += fmt.Sprintf("%-14s %14.0f %14.0f %7.2fx\n", e.Shape, e.SerialNsOp, e.ParallelNsOp, e.Speedup)
	}
	if len(r.Compress) > 0 {
		s += "\nGradient codecs × kernel mode (end-to-end TCP sessions)\n"
		s += fmt.Sprintf("%-6s %-9s %14s %8s %12s %12s %s\n",
			"codec", "kernel", "rep-B/iter", "ratio", "final-loss", "Δ vs exact", "bit-identical")
		for _, e := range r.Compress {
			s += fmt.Sprintf("%-6s %-9s %14.0f %7.2fx %12.6f %+12.6f %v\n",
				e.Compression, e.Kernel, e.ReportBytesPerIter, e.RatioVsExact,
				e.FinalLoss, e.LossDeltaVsExact, e.BitIdentical)
		}
		s += fmt.Sprintf("report-path cut vs exact: fp16 %.2fx, int8 %.2fx, topk %.2fx\n",
			r.Summary.FP16ReportRatio, r.Summary.Int8ReportRatio, r.Summary.TopKReportRatio)
	}
	return s
}

// rtBenchConfig builds the shared workload: a real MLP on a synthetic
// blob dataset, sized so a full run takes seconds, not minutes.
func rtBenchConfig(quick bool) rt.Config {
	iters := 120
	if quick {
		iters = 24
	}
	return rt.Config{
		Workers:    4,
		TotalBatch: 64,
		TokenBatch: 8,
		Iterations: iters,
		LR:         0.05,
	}
}

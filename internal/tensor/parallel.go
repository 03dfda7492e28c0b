package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the goroutine-parallel layer over the blocked kernels in
// tensor.go. Parallelism never touches the arithmetic: a kernel's output
// rows are split into disjoint bands, idle workers steal whole bands off
// a shared claim counter, and inside a band the serial kernel runs
// unchanged — every output element still accumulates its products in
// ascending p order into a single running value. Results are therefore
// bitwise identical to the serial (and naive) kernels at any
// parallelism, which the bit-identity tests prove across GOMAXPROCS
// values.
//
// Small kernels stay serial: below parFlopsCutoff multiply-accumulates
// the fan-out overhead (closure hand-off, counter traffic, wait) costs
// more than the loop itself.

// parFlopsCutoff is the minimum kernel size, measured in
// multiply-accumulate operations (m·k·n for a matmul), worth fanning out
// to the worker pool. It is a variable, not a constant, so tests can
// lower it to force tiny odd-shaped kernels down the parallel path.
// BenchmarkMatMulParallel/Serial on a 2-vCPU Xeon with the AVX2 tile put
// the break-even here: at 2²⁰ MACs fan-out 2 ran 0.88–1.17× the serial
// speed depending on shape, at 2²¹ 1.3×, and at train-compute's
// 16×4096×64 1.6×.
var parFlopsCutoff int64 = 1 << 20

// parallelism holds the configured fan-out width: 0 means "track
// GOMAXPROCS", 1 disables the parallel path entirely.
var parallelism atomic.Int64

// SetParallelism configures how many goroutines (including the caller)
// a kernel fans out to. 0 restores the default of tracking GOMAXPROCS;
// 1 forces every kernel serial; negative values are treated as 0. Safe
// to call concurrently with running kernels — in-flight calls keep the
// width they started with.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the resolved fan-out width (GOMAXPROCS when the
// configured value is 0).
func Parallelism() int {
	if n := int(parallelism.Load()); n != 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// KernelStats is a snapshot of the process-wide kernel counters:
// ParallelCalls/SerialCalls count kernel invocations by path, and for
// the parallel calls BusyNanos sums the time workers spent inside band
// loops while WallNanos sums caller-observed elapsed time. Their ratio,
// scaled by the fan-out width, is the kernel utilization gauge the rt
// worker publishes.
type KernelStats struct {
	ParallelCalls uint64
	SerialCalls   uint64
	BusyNanos     uint64
	WallNanos     uint64
}

var (
	kParallelCalls atomic.Uint64
	kSerialCalls   atomic.Uint64
	kBusyNanos     atomic.Uint64
	kWallNanos     atomic.Uint64
)

// ReadKernelStats returns the current cumulative kernel counters.
// Callers diff successive snapshots to compute utilization over an
// interval.
func ReadKernelStats() KernelStats {
	return KernelStats{
		ParallelCalls: kParallelCalls.Load(),
		SerialCalls:   kSerialCalls.Load(),
		BusyNanos:     kBusyNanos.Load(),
		WallNanos:     kWallNanos.Load(),
	}
}

// The shared worker pool: persistent helper goroutines blocked on an
// unbuffered job channel. The pool grows lazily to the peak concurrency
// the process ever asks for (bounded by maxPoolHelpers) and is shared by
// every kernel call, so concurrent matmuls from different rt workers
// draw from one set of helpers instead of spawning per call.
var (
	poolJobs = make(chan func())
	poolMu   sync.Mutex
	poolSize int
)

// maxPoolHelpers bounds pool growth. It is a sanity backstop far above
// any sensible GOMAXPROCS × concurrent-sessions product, not a tuning
// knob.
const maxPoolHelpers = 256

func poolHelper() {
	for fn := range poolJobs {
		fn()
	}
}

// submitHelper hands fn to an idle pool helper, growing the pool by one
// when all existing helpers are busy. Returns false (fn not run) when
// the pool is saturated at maxPoolHelpers and nobody is idle — the
// caller simply keeps that share of the work for itself.
func submitHelper(fn func()) bool {
	select {
	case poolJobs <- fn:
		return true
	default:
	}
	poolMu.Lock()
	grow := poolSize < maxPoolHelpers
	if grow {
		poolSize++
	}
	poolMu.Unlock()
	if grow {
		go poolHelper()
		poolJobs <- fn
		return true
	}
	select {
	case poolJobs <- fn:
		return true
	default:
		return false
	}
}

// parallelBands splits [0, rows) into disjoint bands and runs fn over
// each, fanning out to the shared pool. Bands are claimed dynamically
// off an atomic counter — work-stealing in its simplest form — so a
// band that lands on a slow core doesn't stall the rest. The caller
// participates and the call returns only after every band is done. fn
// must write only state owned by its rows.
func parallelBands(rows int, fn func(lo, hi int)) {
	w := Parallelism()
	if w > rows {
		w = rows
	}
	if w <= 1 {
		kSerialCalls.Add(1)
		fn(0, rows)
		return
	}
	// Aim for ~4 bands per worker: fine enough that one uneven band
	// rebalances across the others, coarse enough to keep the claim
	// counter off the hot path.
	band := rows / (4 * w)
	if band < 1 {
		band = 1
	}
	nBands := (rows + band - 1) / band
	start := time.Now()
	var next atomic.Int64
	var busy atomic.Int64
	claim := func() {
		t0 := time.Now()
		for {
			bi := int(next.Add(1)) - 1
			if bi >= nBands {
				break
			}
			lo := bi * band
			hi := lo + band
			if hi > rows {
				hi = rows
			}
			fn(lo, hi)
		}
		busy.Add(int64(time.Since(t0)))
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		if !submitHelper(func() { defer wg.Done(); claim() }) {
			wg.Done()
			break
		}
	}
	claim()
	wg.Wait()
	kParallelCalls.Add(1)
	kBusyNanos.Add(uint64(busy.Load()))
	kWallNanos.Add(uint64(time.Since(start)))
}

// ParallelRows runs fn over disjoint index bands covering [0, rows) on
// the shared kernel pool when flops — the kernel's total
// multiply-accumulate count — clears the parallel cutoff, and serially
// otherwise. This is the hook other packages (minidnn's conv kernels)
// use to ride the same pool, cutoff and utilization accounting as the
// matmuls. fn must write only state owned by its band and must keep
// each output element's accumulation order independent of the banding,
// or the bit-reproducibility guarantee breaks.
func ParallelRows(rows int, flops int64, fn func(lo, hi int)) {
	if flops < parFlopsCutoff {
		kSerialCalls.Add(1)
		fn(0, rows)
		return
	}
	parallelBands(rows, fn)
}

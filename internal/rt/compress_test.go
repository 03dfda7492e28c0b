package rt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// runTCPSession drives a full binary-codec TCP session with the given
// coordinator and worker configs, which must run clean (see
// requireClean), and returns the result plus the coordinator-side
// registry.
func runTCPSession(t *testing.T, coCfg, wCfg Config, seed func() *minidnn.Network, ds *minidnn.Dataset) (*Result, *obs.Registry) {
	t.Helper()
	res, reg, workerErrs, err := runFaultyTCPSession(t, coCfg, wCfg, seed, ds, nil)
	requireClean(t, res, err)
	for _, err := range workerErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return res, reg
}

// runFaultyTCPSession is runTCPSession for sessions scripted to go
// wrong: wrap, when set, sits between each worker and its socket (a
// transport.FaultConn script), and the coordinator's and every worker's
// outcome is returned rather than asserted — a killed worker, or a
// coordinator whose checkpoint hook fails, ends in an error by design.
func runFaultyTCPSession(t *testing.T, coCfg, wCfg Config, seed func() *minidnn.Network, ds *minidnn.Dataset,
	wrap func(wid int, c transport.Conn) transport.Conn) (*Result, *obs.Registry, []error, error) {
	t.Helper()
	reg := obs.NewRegistry()
	coCfg.Metrics = reg

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	serverConns := make([]transport.Conn, coCfg.Workers)
	acceptErr := make(chan error, 1)
	go func() {
		for i := range serverConns {
			c, err := l.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			serverConns[i] = c
		}
		acceptErr <- nil
	}()

	workerErrs := make(chan error, coCfg.Workers)
	for wid := 0; wid < coCfg.Workers; wid++ {
		wid := wid
		go func() {
			c, err := transport.Dial(l.Addr())
			if err != nil {
				workerErrs <- err
				return
			}
			defer c.Close()
			if wrap != nil {
				c = wrap(wid, c)
			}
			workerErrs <- NewWorker(wid, seed(), ds, wCfg).Run(c)
		}()
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	co, err := NewCoordinator(seed(), coCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := co.Run(serverConns)
	if runErr != nil {
		// An aborted coordinator is a dead process: its sockets go with it.
		for _, c := range serverConns {
			c.Close()
		}
	}
	errs := make([]error, coCfg.Workers)
	for i := range errs {
		errs[i] = <-workerErrs
	}
	return res, reg, errs, runErr
}

// decodedBytes sums the coordinator's decoded report bytes of one
// compression metric (wire or raw) under one codec label: the wire bytes
// are nonzero iff reports actually arrived compressed.
func decodedBytes(reg *obs.Registry, metric, codec string) int64 {
	var total int64
	for labels, v := range reg.CounterValues(metric) {
		if strings.Contains(labels, "decode") && strings.Contains(labels, codec) {
			total += v
		}
	}
	return total
}

// TestCompressedSessionOverTCP runs a full session with each dense
// codec negotiated on both sides, over TCP and in process (Train over
// transport.Pair), which cross the same codec. Exact (the default) must
// stay bit-identical to Sequential. A lossy codec's reports must
// actually travel compressed (wire-byte telemetry on the coordinator)
// at its ratio against raw float32 — ≈2× for fp16, ≈4× for int8 — and
// its final loss must land within lossTol of the exact session's. The
// in-process session decodes the same bytes and ends on the same bits
// as the TCP one.
func TestCompressedSessionOverTCP(t *testing.T) {
	cfg := Config{
		Workers: 3, TotalBatch: 30, TokenBatch: 5,
		Iterations: 8, LR: 0.1,
	}
	seed := func() *minidnn.Network { return minidnn.NewMLP(1, 8, 16, 3) }
	ds := minidnn.SyntheticBlobs(2, 30, 8, 3)
	exact, err := Sequential(seed(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exactLoss := exact.Losses[len(exact.Losses)-1]

	for _, tc := range []struct {
		codec              transport.Compression
		minRatio, maxRatio float64
		lossTol            float64
	}{
		// Measured: 1.970× and 9.0e-7, 3.594× and 1.9e-5 (the int8 scale
		// and each section's header weigh more on this small model).
		{transport.CompressExact, 0, 0, 0},
		{transport.CompressFP16, 1.95, 2, 1e-5},
		{transport.CompressInt8, 3.5, 4, 1e-4},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			cfg := cfg
			cfg.Compress = tc.codec
			res, reg := runTCPSession(t, cfg, cfg, seed, ds)
			inCfg := cfg
			inCfg.Metrics = obs.NewRegistry()
			inRes, err := Train(seed, ds, inCfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSession(t, inRes, res)
			name := tc.codec.String()
			for _, metric := range []string{transport.MetricCompressWireBytes, transport.MetricCompressRawBytes} {
				if got, want := decodedBytes(inCfg.Metrics, metric, name), decodedBytes(reg, metric, name); got != want {
					t.Fatalf("in process %s is %d, over TCP %d", metric, got, want)
				}
			}
			if tc.codec == transport.CompressExact {
				if !minidnn.ParamsEqual(res.Params, exact.Params) {
					t.Fatal("parameters differ from Sequential under negotiated-exact")
				}
				return
			}
			last := res.Losses[len(res.Losses)-1]
			if d := math.Abs(last - exactLoss); !(d <= tc.lossTol) { // NaN fails too
				t.Fatalf("final loss %v is %.3g from exact's %v, want within %g", last, d, exactLoss, tc.lossTol)
			}
			wire := decodedBytes(reg, transport.MetricCompressWireBytes, name)
			if wire == 0 {
				t.Fatal("no compressed report bytes decoded: negotiation failed to engage")
			}
			ratio := float64(decodedBytes(reg, transport.MetricCompressRawBytes, name)) / float64(wire)
			if ratio < tc.minRatio || ratio > tc.maxRatio {
				t.Fatalf("report-byte ratio %.3f, want in [%g, %g] (wire %d)", ratio, tc.minRatio, tc.maxRatio, wire)
			}
		})
	}
}

// TestCompressionNegotiationMismatch: a worker requesting a lossy codec
// against a coordinator permitting only exact must degrade to lossless —
// the session completes bit-identical to Sequential and no compressed
// bytes ever cross the wire.
func TestCompressionNegotiationMismatch(t *testing.T) {
	coCfg := Config{
		Workers: 2, TotalBatch: 16, TokenBatch: 4,
		Iterations: 4, LR: 0.1,
		// Compress left at the default: exact only.
	}
	wCfg := coCfg
	wCfg.Compress = transport.CompressTopK // request denied at negotiation
	seed := func() *minidnn.Network { return minidnn.NewMLP(1, 8, 16, 3) }
	ds := minidnn.SyntheticBlobs(2, 16, 8, 3)

	res, reg := runTCPSession(t, coCfg, wCfg, seed, ds)
	want, err := Sequential(seed(), ds, coCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Params {
		if !res.Params[i].Equal(want.Params[i]) {
			t.Fatalf("parameter tensor %d differs from Sequential after a denied compression request", i)
		}
	}
	if wire := decodedBytes(reg, transport.MetricCompressWireBytes, "topk"); wire != 0 {
		t.Fatalf("%d top-k bytes decoded despite the coordinator denying compression", wire)
	}
}

// assertSameSession holds a disturbed lossy session to the undisturbed
// one: a token's encoding is a pure function of its gradient and the
// coordinator aggregates in Seq order, so who trained which token, and
// in how many coordinator lifetimes, must not show in a single bit.
func assertSameSession(t *testing.T, got, want *Result) {
	t.Helper()
	if !minidnn.ParamsEqual(got.Params, want.Params) {
		t.Fatal("parameters differ from the undisturbed session")
	}
	if !slices.Equal(got.Losses, want.Losses) {
		t.Fatalf("loss history differs from the undisturbed session:\n got %v\nwant %v", got.Losses, want.Losses)
	}
}

// TestCompressTopKWorkerKillMatchesUndisturbed: a top-k session over TCP
// in which a worker's connection dies on the report of a token it holds
// — the token is reassigned and re-encoded by a survivor — ends bit for
// bit where the same session ends with nobody dying, just as an exact
// session under faults ends where Sequential does.
func TestCompressTopKWorkerKillMatchesUndisturbed(t *testing.T) {
	dumpFlightOnFailure(t)
	cfg := chaosCfg()
	cfg.Compress = transport.CompressTopK
	const bad = 2
	throttleHealthy(&cfg, bad)

	want, reg := runTCPSession(t, cfg, cfg, mlp, blobs())
	if decodedBytes(reg, transport.MetricCompressWireBytes, "topk") == 0 {
		t.Fatal("no top-k report bytes decoded: negotiation failed to engage")
	}
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if minidnn.ParamsEqual(seq.Params, want.Params) {
		t.Fatal("top-k session is bit-identical to Sequential: nothing was dropped, the crossing proves nothing")
	}

	// Sends 0..4 of a worker the others leave the pool to: register,
	// request, report, request, report. The second report never leaves.
	got, _, _, err := runFaultyTCPSession(t, cfg, cfg, mlp, blobs(), func(wid int, c transport.Conn) transport.Conn {
		if wid == bad {
			return transport.NewFaultConn(c, 1).CloseAfterSends(4)
		}
		return c
	})
	if err != nil {
		t.Fatalf("coordinator failed: %v", err)
	}
	if len(got.DeadWorkers) != 1 || got.DeadWorkers[0] != bad {
		t.Fatalf("DeadWorkers = %v, want [%d]", got.DeadWorkers, bad)
	}
	if got.Reassigned == 0 {
		t.Fatal("the dead worker held a token but nothing was reassigned")
	}
	assertSameSession(t, got, want)
}

// TestCompressTopKResumeMatchesUndisturbed: a top-k session whose
// coordinator dies right after committing the iteration-3 checkpoint,
// restarted from that checkpoint through Config.Resume with fresh
// workers, ends bit for bit where the uninterrupted session ends.
// Momentum makes the velocity part of the state that must survive.
func TestCompressTopKResumeMatchesUndisturbed(t *testing.T) {
	dumpFlightOnFailure(t)
	cfg := baseCfg()
	cfg.Momentum = 0.9
	cfg.Compress = transport.CompressTopK

	want, reg := runTCPSession(t, cfg, cfg, mlp, blobs())
	if decodedBytes(reg, transport.MetricCompressWireBytes, "topk") == 0 {
		t.Fatal("no top-k report bytes decoded: negotiation failed to engage")
	}

	const dieAfter = 3
	var saved *Resume
	crashed := errors.New("coordinator killed")
	phase1 := cfg
	phase1.CheckpointEvery = 2
	phase1.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
		saved = &Resume{Iter: iter, Params: params, Vel: vel, Losses: losses}
		if iter == dieAfter {
			return crashed
		}
		return nil
	}
	if _, _, _, err := runFaultyTCPSession(t, phase1, cfg, mlp, blobs(), nil); !errors.Is(err, crashed) {
		t.Fatalf("phase 1 ended with %v, want the scripted crash", err)
	}
	if saved == nil || saved.Iter != dieAfter {
		t.Fatalf("phase 1 left checkpoint %+v, want iteration %d", saved, dieAfter)
	}

	phase2 := cfg
	phase2.Resume = saved
	got, _ := runTCPSession(t, phase2, cfg, mlp, blobs())
	assertSameSession(t, got, want)
}

// sessionDigest is a session's bits in two strings: the SHA-256 of every
// final parameter's float32 bits, in tensor order, and the loss history
// as float64 bit patterns.
func sessionDigest(res *Result) (params, losses string) {
	h := sha256.New()
	for _, p := range res.Params {
		for _, v := range p.Data {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	var b strings.Builder
	for i, l := range res.Losses {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(l))
	}
	return hex.EncodeToString(h.Sum(nil)), b.String()
}

// TestCompressTopKGoldenSession pins a small top-k session over TCP to
// the bits it ended with before top-k reports were folded from their
// sparse sections: the final parameters' hash and every loss. The
// first-layer weight (64×512) is large enough that its report section
// and its iter-start section both take the large-section paths. The
// values are amd64's; Go may fuse a multiply-add elsewhere.
func TestCompressTopKGoldenSession(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are pinned on amd64")
	}
	cfg := Config{
		Workers: 3, TotalBatch: 48, TokenBatch: 4, Iterations: 5,
		LR: 0.01, Momentum: 0.9, Compress: transport.CompressTopK,
	}
	seed := func() *minidnn.Network { return minidnn.NewMLP(11, 64, 512, 4) }
	res, reg := runTCPSession(t, cfg, cfg, seed, minidnn.SyntheticBlobs(13, 48, 64, 4))
	if decodedBytes(reg, transport.MetricCompressWireBytes, "topk") == 0 {
		t.Fatal("no top-k report bytes decoded: negotiation failed to engage")
	}
	const (
		wantParams = "3a96c021d793fd41aab9cfd456fbe5cd720aba4139a907260b4ffa400cd87020"
		wantLosses = "3ff26201162df076 3fd2649a8a3ac38f 3fa5709692949ad8 3f7c64dcf63b0824 3f572ba286985273"
	)
	params, losses := sessionDigest(res)
	if params != wantParams {
		t.Errorf("final parameters hash %s, want %s", params, wantParams)
	}
	if losses != wantLosses {
		t.Errorf("loss bits\n got %s\nwant %s", losses, wantLosses)
	}
}

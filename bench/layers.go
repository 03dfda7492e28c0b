package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// The layer pass times direct calls into each layer's public functions
// at the workload's own shapes. Every figure is the median of layerReps
// samples (fewer when -scale shrinks the run) taken after layerWarm
// unrecorded ones. A sample times a batch
// of back-to-back calls and divides, the batch sized from a first call
// so that a sample lasts about layerSample: nanosecond-scale calls are
// then well above the clock's resolution.
const (
	layerReps   = 31
	layerWarm   = 3
	layerSample = 200 * time.Microsecond
)

// layerTimer times calls, reps samples each.
type layerTimer struct{ reps int }

func newLayerTimer(scale float64) layerTimer {
	return layerTimer{min(layerReps, scaled(layerReps, scale, 3))}
}

// warm is the number of unrecorded samples: layerWarm, fewer when the
// run is shrunk.
func (lt layerTimer) warm() int { return min(layerWarm, (lt.reps+2)/3) }

// median returns the median duration of fn in ns per call.
func (lt layerTimer) median(fn func()) float64 {
	t0 := time.Now()
	fn()
	batch := 1
	if first := time.Since(t0); first < layerSample {
		batch = int(layerSample/(first+1)) + 1
	}
	samples := make([]float64, 0, lt.reps)
	warm := lt.warm()
	for i := 0; i < warm+lt.reps; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		if i >= warm {
			samples = append(samples, float64(time.Since(t0))/float64(batch))
		}
	}
	return median(samples)
}

// layerPass measures the tensor, minidnn, transport and rt layers at
// the shapes of w's tokens. The largest matmul of a token is the one
// with the most multiply-accumulates among the network's dense layers.
func layerPass(w *workload, seed int64, lt layerTimer, out map[string]float64) error {
	net := w.newNet(seed)
	var ds *minidnn.Dataset
	if w.serve {
		_, d, err := jobs.BuildSession(transport.JobSpec{Seed: seed})
		if err != nil {
			return err
		}
		ds = d
	} else {
		ds = w.newData(seed + 1)
	}
	x, labels := ds.Batch(0, w.tokenBatch)

	// tensor: the token's largest matmul, at default fan-out and serial,
	// and the small sub-cutoff matmul of the scheduling workloads.
	m, k, n := largestMatMul(net, w.tokenBatch)
	rng := rand.New(rand.NewSource(seed))
	a := tensor.New(m, k).Randn(rng, 1)
	b := tensor.New(k, n).Randn(rng, 1)
	par := lt.median(func() { tensor.MatMul(a, b) })
	tensor.SetParallelism(1)
	serial := lt.median(func() { tensor.MatMul(a, b) })
	tensor.SetParallelism(0)
	out["tensor.matmul_ms"] = par / 1e6
	out["tensor.matmul_par_speedup"] = serial / par
	sa := tensor.New(2, 16).Randn(rng, 1)
	sb := tensor.New(16, 32).Randn(rng, 1)
	out["tensor.small_matmul_us"] = lt.median(func() { tensor.MatMul(sa, sb) }) / 1e3

	// minidnn: what a worker computes for one token.
	out["minidnn.fwdbwd_ms"] = lt.median(func() {
		net.ZeroGrads()
		net.Loss(x, labels)
	}) / 1e6

	// transport: the workload's own frames under its own gradient codec.
	// The gradients are real ones, so a value-dependent codec sees the
	// distribution it sees in the run.
	iterStart := &transport.Message{Kind: transport.KindIterStart, Iter: 1, Params: flat(net.Params())}
	report := &transport.Message{
		Kind: transport.KindReport, Token: transport.TokenInfo{ID: 7, Seq: 7, Lo: 7, Hi: 8},
		Grads: flat(net.Grads()), Loss: 0.5,
	}
	report.SetGradCodec(w.compress)
	assign := &transport.Message{Kind: transport.KindAssign, Iter: 1, Token: report.Token}
	request := &transport.Message{Kind: transport.KindRequest, WID: 1}
	var err error
	codec := func(m *transport.Message) (enc, dec float64) {
		frame, e := transport.EncodeBinary(m)
		if e != nil {
			err = e
			return 0, 0
		}
		enc = lt.median(func() {
			f, e := transport.EncodeBinaryPooled(m)
			if e != nil {
				err = e
				return
			}
			transport.ReleaseFrame(f)
		})
		dec = lt.median(func() {
			d, e := transport.DecodeBinary(frame)
			if e != nil {
				err = e
				return
			}
			d.Release()
		})
		return enc, dec
	}
	enc, dec := codec(iterStart)
	out["transport.enc_iterstart_ms"], out["transport.dec_iterstart_ms"] = enc/1e6, dec/1e6
	enc, dec = codec(report)
	out["transport.enc_report_ms"], out["transport.dec_report_ms"] = enc/1e6, dec/1e6
	encA, decA := codec(assign)
	encR, decR := codec(request)
	out["transport.enc_ctl_ns"], out["transport.dec_ctl_ns"] = encA+encR, decA+decR
	if err != nil {
		return fmt.Errorf("layer pass codec: %w", err)
	}

	// rt: folding one token's gradients into the accumulator set.
	grads := net.CloneGrads()
	acc := net.CloneGrads()
	frac := float32(w.tokenBatch) / float32(w.totalBatch)
	out["rt.aggregate_ms"] = lt.median(func() {
		for i := range acc {
			acc[i].AddScaled(grads[i], frac)
		}
	}) / 1e6
	return nil
}

// largestMatMul finds the dense layer with the most multiply-accumulates
// per token: parameters come as (weight, bias) pairs and a 2-D weight of
// shape in x out multiplies a batch x in activation.
func largestMatMul(net *minidnn.Network, batch int) (m, k, n int) {
	for _, p := range net.Params() {
		if p.Dims() != 2 {
			continue
		}
		if in, o := p.Shape[0], p.Shape[1]; in*o > k*n {
			m, k, n = batch, in, o
		}
	}
	return m, k, n
}

func flat(ts []*tensor.Tensor) [][]float32 {
	out := make([][]float32, len(ts))
	for i, t := range ts {
		out[i] = t.Data
	}
	return out
}

// serveLayerPass measures the jobs and gate layers without HTTP sockets:
// Manager.SubmitJob to the result channel, and a status read through
// Gateway.ServeHTTP into a recorder.
func serveLayerPass(w *workload, in *serveInputs, lt layerTimer, out map[string]float64) error {
	env, err := startServe(nil)
	if err != nil {
		return err
	}
	defer env.stop()
	spec := transport.JobSpec{
		Iterations: serveJobIters, TotalBatch: w.totalBatch, TokenBatch: w.tokenBatch, MaxWorkers: 1, Seed: 1,
	}
	var settle []float64
	for i := 0; i < lt.warm()+lt.reps; i++ {
		t0 := time.Now()
		_, ch, err := env.mgr.SubmitJob(spec, jobs.SubmitOptions{})
		if err != nil {
			return err
		}
		if res := <-ch; res.Err != nil {
			return res.Err
		}
		if i >= lt.warm() {
			settle = append(settle, ms(time.Since(t0)))
		}
	}
	out["jobs.submit_to_settle_ms_p50"] = median(settle)

	// One settled job to read.
	var view struct{ ID string }
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	code, err := call(&http.Client{Transport: tr}, "tenant-0", "POST", env.srv.URL+"/v1/jobs", in.bodies[0], &view)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("layer pass submit answered %d: %v", code, err)
	}
	req := httptest.NewRequest("GET", "/v1/jobs/"+view.ID, nil)
	req.Header.Set("X-Fela-Tenant", "tenant-0")
	bad := 0
	out["gate.status_read_us_p50"] = lt.median(func() {
		rec := httptest.NewRecorder()
		env.gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			bad++
		}
	}) / 1e3
	if bad > 0 {
		return fmt.Errorf("layer pass: %d status reads did not answer 200", bad)
	}
	return nil
}

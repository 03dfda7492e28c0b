package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fela/internal/gate"
	"fela/internal/jobs"
	"fela/internal/obs"
	"fela/internal/transport"
)

// serveEnv is the serving stack of serve-jobs: a gateway over one
// jobs.Manager shard behind an HTTP server, and two pool workers that
// reach the manager over loopback TCP.
type serveEnv struct {
	mgr     *jobs.Manager
	gw      *gate.Gateway
	srv     *httptest.Server
	ln      *transport.Listener
	workers sync.WaitGroup
}

// startServe starts the stack. A non-nil reg becomes the manager's
// jobs.Config.Metrics, and through it every job's coordinator's.
func startServe(reg *obs.Registry) (*serveEnv, error) {
	env := &serveEnv{}
	env.mgr = jobs.NewManager(jobs.Config{Metrics: reg})
	ln, err := transport.ListenCodec("127.0.0.1:0", transport.CodecBinary)
	if err != nil {
		return nil, err
	}
	env.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			env.mgr.Admit(c)
		}
	}()
	dial := func() (transport.Conn, error) {
		return transport.DialCodec(ln.Addr(), transport.CodecBinary)
	}
	for i := 0; i < workers; i++ {
		env.workers.Add(1)
		go func() {
			defer env.workers.Done()
			_, _ = jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
		}()
	}
	gw, err := gate.New(gate.Config{
		Shards:    []gate.Shard{env.mgr},
		AdmitWait: 30 * time.Second, // every submit answers 200 with the settled view
	})
	if err != nil {
		env.stop()
		return nil, err
	}
	env.gw = gw
	env.srv = httptest.NewServer(gw)
	// The pool workers register within a millisecond of dialing; a job
	// submitted before that queues until they have.
	return env, nil
}

// stop tears the stack down and waits for every goroutine it started.
func (e *serveEnv) stop() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	e.mgr.Stop()
	<-e.mgr.Done()
	e.ln.Close()
	e.workers.Wait()
}

// serveInputs are the run's distinct job submissions, derived from the
// seed, with the final loss jobs.Reference gives each.
type serveInputs struct {
	bodies [][]byte
	want   []float64
}

func newServeInputs(w *workload, seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	for i := 0; i < serveSpecs; i++ {
		req := gate.SubmitRequest{
			Iterations: serveJobIters, TotalBatch: w.totalBatch, TokenBatch: w.tokenBatch,
			MaxWorkers: 1, Seed: seed*1000 + int64(i) + 1,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ref, err := jobs.Reference(transport.JobSpec{
			Iterations: req.Iterations, TotalBatch: req.TotalBatch, TokenBatch: req.TokenBatch,
			MaxWorkers: req.MaxWorkers, Seed: req.Seed,
		})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.want = append(in.want, ref.Losses[len(ref.Losses)-1])
	}
	return in, nil
}

// loopRec is one closed-loop iteration of one client: when the POST was
// sent, when its 200 body was read, when the GET's body was read, and
// the two manager-side phases the job view reports.
type loopRec struct {
	t0, t1, t2       time.Duration // since the run's epoch
	queueS, runtimeS float64
}

// serveRun is one finished closed-loop run against a serveEnv.
type serveRun struct {
	loops  int // per client
	wall   time.Duration
	total  time.Duration // stack start, run, stack stop
	recs   []loopRec
	failed int
	notes  []string

	usage // over the client loops
}

func (r *serveRun) jobs() int { return serveClients * r.loops }

func (r *serveRun) tokensPerSec(w *workload) float64 {
	return float64(r.jobs()*serveJobIters*w.tokensPerIter()) / r.wall.Seconds()
}

// series extracts one latency per loop, in ms.
func (r *serveRun) series(f func(loopRec) float64) []float64 {
	out := make([]float64, len(r.recs))
	for i, rec := range r.recs {
		out[i] = f(rec)
	}
	return out
}

func loopMS(r loopRec) float64    { return ms(r.t2 - r.t0) }
func jobMS(r loopRec) float64     { return ms(r.t1 - r.t0) }
func statusMS(r loopRec) float64  { return ms(r.t2 - r.t1) }
func queueMS(r loopRec) float64   { return r.queueS * 1000 }
func runtimeMS(r loopRec) float64 { return r.runtimeS * 1000 }

// overheadMS is the part of a job's latency spent outside the manager's
// queue and the training session: HTTP, JSON, admission, settle.
func overheadMS(r loopRec) float64 { return jobMS(r) - queueMS(r) - runtimeMS(r) }

// spans lays each loop out as a tree. The view gives the durations of
// the job's two manager-side phases, not their start: they are laid end
// to end before the moment the answer arrived.
func (r *serveRun) spans() *spanLog {
	var log spanLog
	for id, rec := range r.recs {
		t0, t1, t2 := int64(rec.t0), int64(rec.t1), int64(rec.t2)
		rt, qw := int64(rec.runtimeS*1e9), int64(rec.queueS*1e9)
		loop := log.add(0, "client.loop", t0, t2, -1, id, id)
		job := log.add(loop, "gate.job", t0, t1, -1, id, id)
		log.add(job, "jobs.queue_wait", t1-rt-qw, t1-rt, -1, id, id)
		log.add(job, "jobs.runtime", t1-rt, t1, -1, id, id)
		log.add(loop, "gate.status", t1, t2, -1, id, id)
	}
	return &log
}

// runServe starts the stack, lets two clients on keep-alive connections
// each make loops closed-loop iterations — submit a job and wait for its
// result, then read its status — checks every answer, and stops the
// stack. traced adds the memory statistics to the run's usage; reg is
// handed to startServe.
func runServe(in *serveInputs, loops int, traced bool, reg *obs.Registry) (*serveRun, error) {
	began := time.Now()
	env, err := startServe(reg)
	if err != nil {
		return nil, err
	}
	run := &serveRun{loops: loops}
	type clientLog struct {
		recs   []loopRec
		failed int
		note   string
	}
	logs := make([]clientLog, serveClients)
	stop := meter(traced)
	epoch := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			tenant := fmt.Sprintf("tenant-%d", c)
			fail := func(format string, args ...any) {
				lg.failed++
				if lg.note == "" {
					lg.note = fmt.Sprintf(format, args...)
				}
			}
			for i := 0; i < loops; i++ {
				k := (c*loops + i) % len(in.bodies)
				t0 := time.Since(epoch)
				var view gate.JobView
				code, err := call(client, tenant, "POST", env.srv.URL+"/v1/jobs", in.bodies[k], &view)
				t1 := time.Since(epoch)
				switch {
				case err != nil:
					fail("submit: %v", err)
					continue
				case code != http.StatusOK || view.State != "done":
					fail("submit answered %d, state %q", code, view.State)
					continue
				case view.FinalLoss == nil || *view.FinalLoss != in.want[k]:
					fail("job %s final loss differs from jobs.Reference", view.ID)
				}
				var status gate.JobView
				code, err = call(client, tenant, "GET", env.srv.URL+"/v1/jobs/"+view.ID, nil, &status)
				t2 := time.Since(epoch)
				if err != nil || code != http.StatusOK || status.State != "done" {
					fail("status of %s answered %d, state %q, err %v", view.ID, code, status.State, err)
				}
				lg.recs = append(lg.recs, loopRec{t0, t1, t2, view.QueueWaitSeconds, view.RuntimeSeconds})
			}
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(epoch)
	run.usage = stop()
	for _, lg := range logs {
		run.recs = append(run.recs, lg.recs...)
		run.failed += lg.failed
		if lg.note != "" {
			run.notes = append(run.notes, lg.note)
		}
	}
	env.stop()
	run.total = time.Since(began)
	return run, nil
}

// call makes one request and decodes the JSON answer into out.
func call(client *http.Client, tenant, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Fela-Tenant", tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %d answer: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

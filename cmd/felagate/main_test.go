package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"fela/internal/jobs"
	"fela/internal/transport"
)

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startPoolWorkers runs n in-process pool workers against the gateway's
// worker port, exactly as felaworker -pool processes would.
func startPoolWorkers(t *testing.T, addr string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		go func() {
			dial := func() (transport.Conn, error) {
				return transport.DialRetry(addr, 50, 20*time.Millisecond)
			}
			_, _ = jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
		}()
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never became healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunServesAndDrains boots the full binary path — two manager
// shards, real pool workers, real HTTP — submits a job end to end, then
// delivers a SIGTERM and requires a clean (nil) exit.
func TestRunServesAndDrains(t *testing.T) {
	o := gateOpts{
		addr:         freeAddr(t),
		poolAddr:     freeAddr(t),
		shards:       2,
		alloc:        "fair-share",
		drainTimeout: 20 * time.Second,
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, sig) }()
	base := "http://" + o.addr
	waitHealthy(t, base)
	startPoolWorkers(t, o.poolAddr, 2)

	body := `{"name": "gate-e2e", "iterations": 3, "total_batch": 16, "token_batch": 8}`
	req, _ := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("X-Fela-Tenant", "e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var ack struct {
		Job string `json:"job"`
		ID  string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit code %d", resp.StatusCode)
	}
	id := ack.Job
	if id == "" {
		id = ack.ID
	}

	// Poll until the job trains to completion through the real stack.
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id, nil)
		req.Header.Set("X-Fela-Tenant", "e2e")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		var jv struct {
			State string `json:"state"`
		}
		json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if jv.State == "done" {
			break
		}
		if jv.State == "failed" || jv.State == "rejected" {
			t.Fatalf("job ended %q", jv.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jv.State)
		}
		time.Sleep(25 * time.Millisecond)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean exit", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
}

// TestRunDrainShedsSubmissions checks the drain contract: after the
// signal, new submissions get 503 while the server finishes shutting
// down.
func TestRunDrainShedsSubmissions(t *testing.T) {
	o := gateOpts{
		addr:         freeAddr(t),
		poolAddr:     freeAddr(t),
		shards:       1,
		alloc:        "fair-share",
		drainTimeout: 10 * time.Second,
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, sig) }()
	base := "http://" + o.addr
	waitHealthy(t, base)

	sig <- syscall.SIGTERM
	// The drain starts once run reads the signal; /healthz turns 503 then.
	// A submission sent earlier is rightly accepted.
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			break // listener already down
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// With nothing in flight the drain races us to shutdown; a refused
	// connection is as correct as a 503.
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"iterations": 1}`))
		if err != nil {
			break // listener already down
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusServiceUnavailable {
			t.Fatalf("submit during drain: code %d", code)
		}
		break
	}
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(gateOpts{shards: 0}, nil); err == nil {
		t.Fatal("shards=0 accepted")
	}
	if err := run(gateOpts{addr: "127.0.0.1:0", poolAddr: "127.0.0.1:0", shards: 1, alloc: "fair-share", tenantRate: math.NaN()}, nil); err == nil {
		t.Fatal("NaN tenant rate accepted")
	}
	if err := run(gateOpts{shards: 1, alloc: "nope"}, nil); err == nil {
		t.Fatal("bad alloc accepted")
	}
	o := gateOpts{shards: 1, alloc: "fair-share", admission: "nope"}
	if err := run(o, nil); err == nil {
		t.Fatal("bad admission accepted")
	}
}

// TestRunDrainDeadlineWithStuckJob pins the shutdown bound: a job
// queued on a shard with no pool workers can never finish, so both the
// gateway drain and the shard drain must hit their deadlines and the
// process must still exit cleanly instead of hanging on the manager.
func TestRunDrainDeadlineWithStuckJob(t *testing.T) {
	o := gateOpts{
		addr:         freeAddr(t),
		poolAddr:     freeAddr(t),
		shards:       1,
		alloc:        "fair-share",
		drainTimeout: 500 * time.Millisecond,
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, sig) }()
	base := "http://" + o.addr
	waitHealthy(t, base)

	req, _ := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(`{"iterations": 5}`))
	req.Header.Set("X-Fela-Tenant", "stuck")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit code %d, want 202 (job should queue forever)", resp.StatusCode)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung on the undrainable shard")
	}
}

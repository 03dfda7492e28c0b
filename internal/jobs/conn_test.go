package jobs

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// recordConn is an inner conn that records the Iter of everything the
// forwarder delivers. A non-nil gate blocks each Send until the test
// closes it; entered is signalled as each Send starts.
type recordConn struct {
	gate    chan struct{}
	entered chan struct{}

	mu     sync.Mutex
	got    []int
	closed bool
}

func (c *recordConn) Send(m *transport.Message) error {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return transport.ErrClosed
	}
	c.got = append(c.got, m.Iter)
	return nil
}

func (c *recordConn) Recv() (*transport.Message, error) { return nil, transport.ErrClosed }

func (c *recordConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *recordConn) delivered() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.got...)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncConnOrderAcrossBatches: messages and broadcasts, interleaved,
// arrive in send order although the forwarder takes them in several
// batches — the first held back behind a stalled send, the rest racing
// the sender.
func TestAsyncConnOrderAcrossBatches(t *testing.T) {
	inner := &recordConn{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	a := newAsyncConn(inner)
	defer a.Close()
	send := func(i int) {
		m := &transport.Message{Kind: transport.KindIterStart, Iter: i}
		var err error
		if i%3 == 0 {
			err = a.SendBroadcast(transport.NewBroadcast(m))
		} else {
			err = a.Send(m)
		}
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	const n = 2000
	send(0)
	<-inner.entered // the forwarder holds a batch of one, stalled
	for i := 1; i < 100; i++ {
		send(i) // the next batch, queued behind the stall
	}
	close(inner.gate)
	for i := 100; i < n; i++ {
		send(i)
	}
	waitFor(t, "every send to be delivered", func() bool { return len(inner.delivered()) == n })
	for i, v := range inner.delivered() {
		if v != i {
			t.Fatalf("delivery %d carried iter %d: order not preserved", i, v)
		}
	}
}

// TestAsyncConnBacklogBound: with the forwarder blocked on a stalled
// peer, asyncSendBuffer sends queue behind it and the next one is
// refused with the backlog error.
func TestAsyncConnBacklogBound(t *testing.T) {
	inner := &recordConn{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	a := newAsyncConn(inner)
	defer func() {
		close(inner.gate)
		a.Close()
	}()
	m := &transport.Message{Kind: transport.KindAssign}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	<-inner.entered
	for i := 0; i < asyncSendBuffer; i++ {
		if err := a.Send(m); err != nil {
			t.Fatalf("queued send %d of %d refused: %v", i+1, asyncSendBuffer, err)
		}
	}
	want := fmt.Sprintf("jobs: worker send backlog exceeded %d messages", asyncSendBuffer)
	if err := a.Send(m); err == nil || err.Error() != want {
		t.Fatalf("send past the bound: %v, want %q", err, want)
	}
}

// failConn fails every Send.
type failConn struct{ recordConn }

var errInjected = errors.New("injected send failure")

func (c *failConn) Send(*transport.Message) error { return errInjected }

// TestAsyncConnForwardErrorIsSticky: a failed delivery surfaces on the
// next Send and every one after it.
func TestAsyncConnForwardErrorIsSticky(t *testing.T) {
	a := newAsyncConn(&failConn{})
	defer a.Close()
	if err := a.Send(&transport.Message{}); err != nil {
		t.Fatalf("first send (queued before the failure): %v", err)
	}
	waitFor(t, "the forward failure", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.err != nil
	})
	for i := 0; i < 2; i++ {
		if err := a.Send(&transport.Message{}); !errors.Is(err, errInjected) {
			t.Fatalf("send after the failure: %v, want %v", err, errInjected)
		}
	}
}

// TestAsyncConnSendAfterClose: Close is final for both send paths.
func TestAsyncConnSendAfterClose(t *testing.T) {
	a := newAsyncConn(&recordConn{})
	a.Close()
	if err := a.Send(&transport.Message{}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: %v", err)
	}
	if err := a.SendBroadcast(transport.NewBroadcast(&transport.Message{})); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("SendBroadcast after Close: %v", err)
	}
}

// TestAsyncConnForwardsTimeouts: SetTimeouts on an asyncConn reaches
// the conn it wraps, so a Recv from a silent peer times out.
func TestAsyncConnForwardsTimeouts(t *testing.T) {
	inner, peer := transport.Pair()
	defer peer.Close()
	a := newAsyncConn(inner)
	defer a.Close()
	if !transport.SetTimeouts(a, 0, 20*time.Millisecond) {
		t.Fatal("SetTimeouts reported no deadlines")
	}
	if _, err := a.Recv(); transport.Classify(err) != transport.ClassTimeout {
		t.Fatalf("recv from a silent peer: %v (class %v), want timeout", err, transport.Classify(err))
	}
}

// TestAsyncConnSendsRaceClose: concurrent senders racing Close neither
// panic nor strand the forwarder — the goroutine count returns to where
// it started once every conn is closed.
func TestAsyncConnSendsRaceClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		a := newAsyncConn(&recordConn{})
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					err := a.Send(&transport.Message{Iter: i})
					if err != nil && !errors.Is(err, transport.ErrClosed) {
						t.Errorf("send racing Close: %v", err)
						return
					}
				}
			}()
		}
		a.Close()
		wg.Wait()
	}
	waitFor(t, "the forwarders to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// signalConn acknowledges each delivery on a channel and allocates
// nothing itself.
type signalConn struct {
	recordConn
	sent chan struct{}
}

func (c *signalConn) Send(*transport.Message) error {
	c.sent <- struct{}{}
	return nil
}

// TestAsyncConnSteadyStateAllocs: once the queue and the spare batch
// have grown, an enqueue and its delivery allocate nothing.
func TestAsyncConnSteadyStateAllocs(t *testing.T) {
	inner := &signalConn{sent: make(chan struct{}, 1)}
	a := newAsyncConn(inner)
	defer a.Close()
	m := &transport.Message{Kind: transport.KindAssign}
	round := func() {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		<-inner.sent
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("enqueue+forward allocates %v times per message, want 0", allocs)
	}
}

// paramsConn is a worker's end of a session that keeps, per iteration,
// a copy of the parameters its iter-start carried and when it arrived.
// A listenOnly conn swallows the worker's token requests, so the worker
// receives every iter-start but never holds a token.
type paramsConn struct {
	transport.Conn
	listenOnly bool
	mu         sync.Mutex
	params     map[int][][]float32
	at         map[int]time.Time
}

func newParamsConn(c transport.Conn, listenOnly bool) *paramsConn {
	return &paramsConn{Conn: c, listenOnly: listenOnly, params: map[int][][]float32{}, at: map[int]time.Time{}}
}

func (c *paramsConn) Send(m *transport.Message) error {
	if c.listenOnly && m.Kind == transport.KindRequest {
		return nil
	}
	return c.Conn.Send(m)
}

func (c *paramsConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == transport.KindIterStart {
		c.mu.Lock()
		c.at[m.Iter] = time.Now()
		for _, p := range m.Params {
			c.params[m.Iter] = append(c.params[m.Iter], slices.Clone(p))
		}
		c.mu.Unlock()
	}
	return m, err
}

// TestAsyncConnBroadcastSnapshotOutlivesBarrier: a worker whose
// coordinator-side asyncConn delivers through a FaultConn that delays
// every send gets iteration i's iter-start after the coordinator has
// stepped the model and broadcast iteration i+1 to a fast worker, and
// the parameters it gets are still iteration i's, bit for bit the ones
// the fast worker got. The stalled worker never asks for a token (a
// worker holding one would hold the barrier back until it had its
// iter-start), so the fast one trains them all. The first layer
// (32×512) is large enough that the TCP conns write it by writev. The
// session stays bit-identical to rt.Sequential.
func TestAsyncConnBroadcastSnapshotOutlivesBarrier(t *testing.T) {
	cfg := rt.Config{Workers: 2, TotalBatch: 16, TokenBatch: 4, Iterations: 6, LR: 0.05}
	net := func() *minidnn.Network { return minidnn.NewMLP(71, 32, 512, 4) }
	ds := minidnn.SyntheticBlobs(72, 16, 32, 4)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const slow, fast = 0, 1
	coConns := make([]transport.Conn, cfg.Workers)
	workers := make([]*paramsConn, cfg.Workers)
	errs := make(chan error, cfg.Workers)
	for wid := range coConns {
		c, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if wid == slow {
			// Seeded: the first iter-start waits 133 ms, the rest 6–110.
			server = transport.NewFaultConn(server, 73).DelayBy(200 * time.Millisecond)
		}
		a := newAsyncConn(server)
		defer a.Close()
		coConns[wid] = a
		workers[wid] = newParamsConn(c, wid == slow)
		w := rt.NewWorker(wid, net(), ds, cfg)
		go func() { errs <- w.Run(workers[wid]) }()
	}
	co, err := rt.NewCoordinator(net(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(coConns)
	if err != nil {
		t.Fatal(err)
	}
	for range coConns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want, err := rt.Sequential(net(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(res.Params, want.Params) {
		t.Fatal("session differs from rt.Sequential")
	}
	s, f := workers[slow], workers[fast]
	late := 0
	for it := range cfg.Iterations {
		if len(s.params[it]) == 0 || !slices.EqualFunc(s.params[it], f.params[it], sameBits) {
			t.Fatalf("iteration %d: the stalled worker got other parameters than the fast one", it)
		}
		if it+1 < cfg.Iterations && s.at[it].After(f.at[it+1]) {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no iter-start reached the stalled worker after the next barrier: the stall proved nothing")
	}
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestSlowPoolWorkerMatchesReference: a job over in-process pairs in
// which one pool worker's conn delays every message the manager's side
// sends it, so that the others train the tokens while its asyncConn
// forwarder still sleeps on iteration i's iter-start, past the barrier
// that steps the model. The forwarder must send the broadcast's
// snapshot, and the job still ends bit-identical to its solo reference.
// Under -race (make jobs), a broadcast read after the fan-out also shows
// as a race with the step.
func TestSlowPoolWorkerMatchesReference(t *testing.T) {
	m := NewManager(testConfig(FairShare{}))
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunPoolWorker(func() (transport.Conn, error) {
				server, client := transport.Pair()
				if i == 0 {
					server = transport.NewFaultConn(server, 74).DelayBy(20 * time.Millisecond)
				}
				m.Admit(server)
				return client, nil
			}, PoolWorkerOptions{})
			errs <- err
		}()
	}
	waitIdle(t, m, 3)
	ch, err := m.Submit(transport.JobSpec{Name: "slow", Iterations: 8, MinWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitResult(t, ch, "slow")
	mustMatchReference(t, res, "slow")
	stopAndWait(t, m, func() {
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("pool worker: %v", err)
			}
		}
	})
}

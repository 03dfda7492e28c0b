package jobs

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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

package jobs

import (
	"fmt"
	"sync"
	"time"

	"fela/internal/obs"
	"fela/internal/transport"
)

// queuedConn hands a connection to a job's coordinator with a few
// messages replayed in front of the live stream. The manager performs
// the pool-side handshake itself (it already read the worker's join and
// sent the assignment), then lets the coordinator consume the handshake
// it expects — a KindRegister for an initial lease entering Run, a
// KindJoin for an elastic lease entering Admit — without the worker
// resending anything.
type queuedConn struct {
	mu     sync.Mutex
	replay []*transport.Message
	transport.Conn
}

func newQueuedConn(c transport.Conn, replay ...*transport.Message) *queuedConn {
	return &queuedConn{replay: replay, Conn: c}
}

// Recv drains the replay queue before delegating to the wrapped conn.
func (q *queuedConn) Recv() (*transport.Message, error) {
	q.mu.Lock()
	if len(q.replay) > 0 {
		m := q.replay[0]
		q.replay = q.replay[1:]
		q.mu.Unlock()
		return m, nil
	}
	q.mu.Unlock()
	return q.Conn.Recv()
}

// SendBroadcast forwards the encode-once fast path to the wrapped conn
// so the coordinator's parameter fan-out stays cached through the
// wrapper.
func (q *queuedConn) SendBroadcast(b *transport.Broadcast) error {
	return transport.SendBroadcast(q.Conn, b)
}

// SetMetrics forwards codec telemetry attachment to the wrapped conn.
func (q *queuedConn) SetMetrics(reg *obs.Registry) {
	transport.SetConnMetrics(q.Conn, reg)
}

// asyncSendBuffer bounds the per-connection coordinator→worker send
// backlog: the sends queued behind the batch the forwarder is delivering.
// The iteration barrier keeps the genuine in-flight volume to a few
// dozen messages, so a backlog this deep means the worker has stopped
// consuming entirely and is treated as a connection failure. It is a
// bound only; the queue grows with the backlog.
const asyncSendBuffer = 4096

// asyncConn decouples a coordinator's sends from the worker's
// consumption. Transport buffers are bounded and Send blocks when they
// fill, so a coordinator that sends inline from its event loop can
// deadlock under load: it blocks broadcasting to a worker whose receive
// buffer is full, stops draining its own event channel, which stalls
// the worker's inbound pump, which leaves the worker blocked in Send —
// never reaching the Recv that would free the coordinator. Queueing
// sends through a dedicated forwarding goroutine keeps the coordinator
// loop always able to return to its event channel, which breaks the
// only load-bearing edge of that cycle.
//
// Message order is preserved (one queue, one forwarder per conn). A
// forwarding failure is sticky and surfaces on the next Send, where the
// coordinator's usual fault path takes over. Close stops the forwarder
// and closes the inner conn immediately; an undelivered final shutdown
// is indistinguishable from a conn close to the worker, and pool
// workers treat both as "session over, rejoin".
//
// Sends append to queue; the forwarder takes the whole queue at each
// wake-up and leaves its emptied previous batch in its place, so the
// two slices trade places and, once grown to the conn's usual backlog,
// no send allocates.
type asyncConn struct {
	inner transport.Conn
	wake  chan struct{} // capacity 1: the queue has items; wake-ups coalesce
	stop  chan struct{}
	once  sync.Once

	mu    sync.Mutex
	queue []sendItem
	err   error
}

// sendItem is one queued outbound unit: an ordinary message, or a
// broadcast's snapshot, which the forwarder sends through the
// transport's encode-once path.
type sendItem struct {
	m *transport.Message
	b *transport.Broadcast
}

func newAsyncConn(c transport.Conn) *asyncConn {
	a := &asyncConn{
		inner: c,
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	go a.forward()
	return a
}

func (a *asyncConn) forward() {
	var batch []sendItem
	for {
		select {
		case <-a.stop:
			return
		case <-a.wake:
		}
		a.mu.Lock()
		batch, a.queue = a.queue, batch[:0]
		a.mu.Unlock()
		for i, it := range batch {
			var err error
			if it.b != nil {
				err = transport.SendBroadcast(a.inner, it.b)
			} else {
				err = a.inner.Send(it.m)
			}
			batch[i] = sendItem{} // the slot is reused; the message is not
			if err != nil {
				a.mu.Lock()
				a.err = err
				a.mu.Unlock()
				return
			}
		}
	}
}

func (a *asyncConn) Send(m *transport.Message) error {
	return a.enqueue(sendItem{m: m})
}

// SendBroadcast queues the broadcast's snapshot. The coordinator's
// parameters may change once the fan-out returns, and the forwarder may
// write after that, so it must not be handed the live tensors; the
// snapshot is taken here, in the coordinator's goroutine, once for all
// the broadcast's conns, and shares the broadcast's encoding, so the
// encode-once property holds though delivery is deferred.
func (a *asyncConn) SendBroadcast(b *transport.Broadcast) error {
	return a.enqueue(sendItem{b: b.Snapshot()})
}

func (a *asyncConn) enqueue(it sendItem) error {
	a.mu.Lock()
	err := a.err
	switch {
	case err != nil:
	case a.closed():
		err = transport.ErrClosed
	case len(a.queue) >= asyncSendBuffer:
		err = fmt.Errorf("jobs: worker send backlog exceeded %d messages", asyncSendBuffer)
	default:
		a.queue = append(a.queue, it)
	}
	a.mu.Unlock()
	if err != nil {
		return err
	}
	select {
	case a.wake <- struct{}{}:
	default: // a wake-up is already pending; it will take this item too
	}
	return nil
}

func (a *asyncConn) closed() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

func (a *asyncConn) Recv() (*transport.Message, error) {
	return a.inner.Recv()
}

func (a *asyncConn) Close() error {
	a.once.Do(func() { close(a.stop) })
	return a.inner.Close()
}

// SetTimeouts forwards per-message deadlines to the inner conn: they
// bind its Recv and the forwarder's sends.
func (a *asyncConn) SetTimeouts(send, recv time.Duration) {
	transport.SetTimeouts(a.inner, send, recv)
}

// SetMetrics forwards codec telemetry attachment to the inner conn.
func (a *asyncConn) SetMetrics(reg *obs.Registry) {
	transport.SetConnMetrics(a.inner, reg)
}

package transport

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// Pair returns two connected in-process endpoints: the binary-frame
// conns that Dial and Accept return, over a pipe instead of a socket.
// Messages sent on one are received on the other, in order, through the
// same encoder and decoder as over TCP, held frames and negotiated
// gradient codecs included.
func Pair() (Conn, Conn) {
	ab, ba := newPipe(), newPipe()
	return newTCPConn(&pipeConn{r: ba, w: ab}), newTCPConn(&pipeConn{r: ab, w: ba})
}

// pipeBound is how many unread bytes one direction of a pipe holds
// before its writer waits, like a full socket buffer.
const pipeBound = 1 << 20

// pipe is one direction of an in-process byte stream. A Write copies
// its bytes in before it returns, waiting for room past pipeBound; a
// Read takes what is there, waiting while nothing is.
type pipe struct {
	mu sync.Mutex
	// ring holds the n bytes written and not yet read, from ring[r] on,
	// wrapping at its end. A write that does not fit grows it, doubling
	// from 4 KiB up to pipeBound, after which it is reused as it is; it
	// is dropped when the reading end closes.
	ring []byte
	r, n int
	// readerGone and writerGone record that the reading or the writing
	// end was closed; rdl and wdl are their deadlines.
	readerGone, writerGone bool
	rdl, wdl               time.Time
	// cond is broadcast at every change of the above; rtm and wtm, made
	// at the first wait for a read or a write with a deadline, broadcast
	// it once that deadline passes.
	cond     sync.Cond
	rtm, wtm *time.Timer
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond.L = &p.mu
	return p
}

// put copies in as much of b as there is room for and returns how much
// that was, first growing the ring toward pipeBound if b does not fit.
// Callers hold mu.
func (p *pipe) put(b []byte) int {
	if len(p.ring)-p.n < len(b) && len(p.ring) < pipeBound {
		size := max(2*len(p.ring), 4<<10)
		for size < p.n+len(b) && size < pipeBound {
			size *= 2
		}
		ring := make([]byte, min(size, pipeBound))
		p.n = p.take(ring)
		p.ring, p.r = ring, 0
	}
	k := 0
	for k < len(b) && p.n < len(p.ring) {
		w := (p.r + p.n) % len(p.ring)
		c := copy(p.ring[w:min(len(p.ring), w+len(p.ring)-p.n)], b[k:])
		p.n += c
		k += c
	}
	return k
}

// take copies up to len(b) unread bytes into b and returns how many
// that was. Callers hold mu.
func (p *pipe) take(b []byte) int {
	k := 0
	for k < len(b) && p.n > 0 {
		c := copy(b[k:min(len(b), k+p.n)], p.ring[p.r:])
		p.r = (p.r + c) % len(p.ring)
		p.n -= c
		k += c
	}
	return k
}

// changed wakes every waiter to look at the pipe again. Callers hold mu.
func (p *pipe) changed() { p.cond.Broadcast() }

// wait gives up mu until the pipe changes, or until deadline passes with
// *tm set to wake it then, and reports false if deadline has passed
// already. Callers hold mu.
func (p *pipe) wait(deadline time.Time, tm **time.Timer) bool {
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		if *tm == nil {
			*tm = time.AfterFunc(d, func() { p.set(func(*pipe) {}) })
		} else {
			(*tm).Reset(d)
		}
	}
	p.cond.Wait()
	return true
}

// pipeConn is one end of a Pair: a net.Conn that reads r and writes w.
// It fails as a TCP socket does: net.ErrClosed once this end is closed,
// io.EOF once the peer has closed and its bytes are read, EPIPE on a
// write to a closed peer, os.ErrDeadlineExceeded past a deadline.
type pipeConn struct{ r, w *pipe }

func pipeErr(op string, err error) error { return &net.OpError{Op: op, Net: "pipe", Err: err} }

func (c *pipeConn) Read(b []byte) (int, error) {
	p := c.r
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.readerGone:
			return 0, pipeErr("read", net.ErrClosed)
		case p.n > 0:
			n := p.take(b)
			p.changed()
			return n, nil
		case p.writerGone:
			return 0, io.EOF
		case !p.wait(p.rdl, &p.rtm):
			return 0, pipeErr("read", os.ErrDeadlineExceeded)
		}
	}
}

func (c *pipeConn) Write(b []byte) (int, error) {
	p := c.w
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for {
		switch {
		case p.writerGone:
			return n, pipeErr("write", net.ErrClosed)
		case p.readerGone:
			return n, pipeErr("write", syscall.EPIPE)
		case n == len(b):
			return n, nil
		case p.n < pipeBound:
			n += p.put(b[n:])
			p.changed()
		case !p.wait(p.wdl, &p.wtm):
			return n, pipeErr("write", os.ErrDeadlineExceeded)
		}
	}
}

// Close ends both directions at this end: the peer reads what this end
// wrote and then io.EOF, and what the peer wrote and this end did not
// read is dropped. Closing twice is a no-op.
func (c *pipeConn) Close() error {
	c.r.set(func(p *pipe) {
		p.readerGone = true
		p.ring, p.r, p.n = nil, 0, 0
		stopTimer(p.rtm)
	})
	c.w.set(func(p *pipe) { p.writerGone = true; stopTimer(p.wtm) })
	return nil
}

// stopTimer cancels a deadline wake-up that has not fired, if any.
func stopTimer(tm *time.Timer) {
	if tm != nil {
		tm.Stop()
	}
}

// set applies f to p under its lock and wakes p's waiters.
func (p *pipe) set(f func(*pipe)) {
	p.mu.Lock()
	f(p)
	p.changed()
	p.mu.Unlock()
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.r.set(func(p *pipe) { p.rdl = t })
	return nil
}

func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	c.w.set(func(p *pipe) { p.wdl = t })
	return nil
}

func (c *pipeConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

// pipeAddr is the address of either end of a Pair.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

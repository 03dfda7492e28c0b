package transport

import (
	"bytes"
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
	ab, ba := &pipe{}, &pipe{}
	return newTCPConn(&pipeConn{r: ba, w: ab}), newTCPConn(&pipeConn{r: ab, w: ba})
}

// pipeBound is how many unread bytes one direction of a pipe holds
// before its writer waits, like a full socket buffer.
const pipeBound = 1 << 20

// pipe is one direction of an in-process byte stream. A Write copies
// its bytes in before it returns, waiting for room past pipeBound; a
// Read takes what is there, waiting while nothing is.
type pipe struct {
	mu  sync.Mutex
	buf bytes.Buffer // written and not yet read
	// readerGone and writerGone record that the reading or the writing
	// end was closed; rdl and wdl are their deadlines.
	readerGone, writerGone bool
	rdl, wdl               time.Time
	// wake, while someone waits, is closed at the next change of the
	// above.
	wake chan struct{}
}

// changed wakes every waiter to look at the pipe again. Callers hold mu.
func (p *pipe) changed() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// wait gives up mu until the pipe changes or deadline passes, and
// reports whether it changed. Callers hold mu.
func (p *pipe) wait(deadline time.Time) bool {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		tm := time.NewTimer(d)
		defer tm.Stop()
		expired = tm.C
	}
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	wake := p.wake
	p.mu.Unlock()
	defer p.mu.Lock()
	select {
	case <-wake:
		return true
	case <-expired:
		return false
	}
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
		case p.buf.Len() > 0:
			n, _ := p.buf.Read(b)
			p.changed()
			return n, nil
		case p.writerGone:
			return 0, io.EOF
		case !p.wait(p.rdl):
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
		switch room := pipeBound - p.buf.Len(); {
		case p.writerGone:
			return n, pipeErr("write", net.ErrClosed)
		case p.readerGone:
			return n, pipeErr("write", syscall.EPIPE)
		case n == len(b):
			return n, nil
		case room > 0:
			k, _ := p.buf.Write(b[n:min(len(b), n+room)])
			n += k
			p.changed()
		case !p.wait(p.wdl):
			return n, pipeErr("write", os.ErrDeadlineExceeded)
		}
	}
}

// Close ends both directions at this end: the peer reads what this end
// wrote and then io.EOF, and what the peer wrote and this end did not
// read is dropped. Closing twice is a no-op.
func (c *pipeConn) Close() error {
	c.r.set(func(p *pipe) { p.readerGone = true; p.buf = bytes.Buffer{} })
	c.w.set(func(p *pipe) { p.writerGone = true })
	return nil
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

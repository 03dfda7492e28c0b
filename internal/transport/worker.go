package transport

// The worker's end of the iter-start: its parameter sections read from
// the stream straight into the replica's tensors.

import (
	"encoding/binary"
	"io"
)

// paramsDestConn is implemented by conns that take a destination for
// iter-start parameters, and by the wrappers that forward one.
type paramsDestConn interface {
	setParamsDest(params [][]float32) bool
}

// SetParamsDest makes params, in order, the destination of every exact
// iter-start c receives until it is called again (nil clears it). A
// frame whose parameter sections have the lengths of params is read
// from the stream straight into them, with no frame buffer and no copy,
// and the message's Params are params itself; Release leaves them
// alone. Any other frame is received as it is without a destination,
// except that the sections before the first one that does not match
// have landed in params. It reports whether c took the destination:
// the conns of this package and their wrappers do on a little-endian
// host, whose memory is the wire's byte order, and only there.
func SetParamsDest(c Conn, params [][]float32) bool {
	pc, ok := c.(paramsDestConn)
	return ok && nativeLittleEndian && pc.setParamsDest(params)
}

func (c *tcpConn) setParamsDest(params [][]float32) bool {
	if len(params) == 0 {
		params = nil
	}
	c.dest = params
	return true
}

func (ic *instrumentedConn) setParamsDest(params [][]float32) bool {
	return SetParamsDest(ic.inner, params)
}

func (f *FaultConn) setParamsDest(params [][]float32) bool { return SetParamsDest(f.inner, params) }

// recvParams receives the exact iter-start frame h heads into c.dest.
// The payload's prefix is parsed where bufio holds it: a grads group
// that is not empty, or a params count other than len(c.dest), returns
// nil with nothing read, and the caller receives the frame as any
// other. Each section's length is checked against its tensor, and
// against the bytes left in the frame, before its floats are read into
// the tensor. From the first section that does not match on, the frame
// is read and decoded by recvRest.
func (c *tcpConn) recvParams(h frameHead) (*Message, error) {
	p, _ := c.br.Peek(min(h.n, prefixMax))
	r := PayloadReader{data: p}
	m := &Message{Kind: KindIterStart}
	r.head(m)
	if r.Uvarint() != 0 || r.Uvarint() != uint64(len(c.dest)) || r.err != nil {
		return nil, nil
	}
	read, _ := c.br.Discard(r.off)
	for i, d := range c.dest {
		p, _ := c.br.Peek(min(h.n-read, binary.MaxVarintLen64))
		r = PayloadReader{data: p}
		if r.Uvarint() != uint64(len(d)) || r.err != nil || 4*len(d) > h.n-read-r.off {
			return c.recvRest(h, m, i, read)
		}
		c.br.Discard(r.off)
		read += r.off
		if _, err := io.ReadFull(c.br, floatBytes(d)); err != nil {
			return nil, err
		}
		read += 4 * len(d)
	}
	m.Params = c.dest
	return c.recvRest(h, m, len(c.dest), read)
}

// recvRest reads the last h.n-read payload bytes of the iter-start frame
// h heads and decodes them into m: the parameter sections from section
// i on, copied out of the bytes, and the fields after the params group.
// The bytes go back to their pool before it returns.
func (c *tcpConn) recvRest(h frameHead, m *Message, i, read int) (*Message, error) {
	bp, rest, err := c.readBytes(h.n-read, -1)
	if err != nil {
		return nil, err
	}
	r := PayloadReader{data: rest}
	if k := len(c.dest) - i; k > 0 {
		s := r
		arena := make([]float32, 0, s.copiedSections(k))
		m.Params = append(c.dest[:i:i], r.sectionsInto(make([][]float32, k), &arena)...)
	}
	r.tail(m)
	err = r.Finish()
	putRecvBuf(bp)
	if err != nil {
		return nil, &CodecError{err}
	}
	return m, nil
}

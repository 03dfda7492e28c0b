package transport

// Held frames: a message marked SetMore waits on a binary TCP conn and
// leaves in the same write as the next frame. These tests read the far
// end of the socket raw, so they see exactly which bytes are on the wire
// and when.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fela/internal/obs"
)

// rawPair returns a binary tcpConn and the raw socket at its far end.
func rawPair(t *testing.T) (*tcpConn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	d, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw := <-accepted
	if raw == nil {
		t.FailNow()
	}
	c := newTCPConn(d)
	t.Cleanup(func() { c.Close(); raw.Close() })
	return c, raw
}

// expectSilence fails if any byte arrives on raw within d.
func expectSilence(t *testing.T, raw net.Conn, d time.Duration) {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(d))
	var b [1]byte
	n, err := raw.Read(b[:])
	var ne net.Error
	if n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read %d bytes (err %v) from a conn that should be silent", n, err)
	}
}

// readExactly reads len(want) bytes from raw and compares them to want.
func readExactly(t *testing.T, raw net.Conn, want []byte) {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatalf("reading %d bytes: %v", len(want), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("wire bytes differ from two separate frames")
	}
}

// frames is the concatenated binary encoding of ms: what separate Sends
// put on the wire.
func frames(t *testing.T, ms ...*Message) []byte {
	t.Helper()
	var out []byte
	for _, m := range ms {
		var err error
		if out, err = AppendFrame(out, m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// heldReport is a small report marked as followed by another Send.
func heldReport() *Message {
	m := &Message{Kind: KindReport, WID: 1, Token: TokenInfo{ID: 9, Seq: 3, Lo: 24, Hi: 32, Owner: 1},
		Grads: [][]float32{{1, 2, 3}, {4}}, Loss: 0.5}
	m.SetMore(true)
	return m
}

func request() *Message { return &Message{Kind: KindRequest, WID: 1} }

// TestHeldFrameWaitsForNextSend: a marked frame is not on the wire until
// the next Send, which writes both, in order, byte for byte what two
// separate Sends write — also through Instrument and FaultConn, which
// forward the same message.
func TestHeldFrameWaitsForNextSend(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(Conn) Conn
	}{
		{"tcp", func(c Conn) Conn { return c }},
		{"instrument", func(c Conn) Conn { return Instrument(c, obs.NewRegistry()) }},
		{"fault", func(c Conn) Conn { return NewFaultConn(c, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc0, raw := rawPair(t)
			c := tc.wrap(tc0)
			rep := heldReport()
			want := frames(t, rep, request())
			if err := c.Send(rep); err != nil {
				t.Fatal(err)
			}
			expectSilence(t, raw, 50*time.Millisecond)
			if err := c.Send(request()); err != nil {
				t.Fatal(err)
			}
			readExactly(t, raw, want)
		})
	}
}

// writeCounter counts the writes that reach the socket.
type writeCounter struct {
	net.Conn
	mu     sync.Mutex
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// TestHeldFrameSharesOneWrite: the held frame and the next one reach the
// socket in a single write.
func TestHeldFrameSharesOneWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	wc := &writeCounter{Conn: a}
	c := newTCPConn(wc)
	defer c.Close()
	want := frames(t, heldReport(), request())
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(want))
		_, err := io.ReadFull(b, buf)
		if err != nil {
			t.Error(err)
		}
		got <- buf
	}()
	if err := c.Send(heldReport()); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(request()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(<-got, want) {
		t.Fatal("wire bytes differ from two separate frames")
	}
	if wc.writes != 1 {
		t.Fatalf("%d writes for a held frame and its follower, want 1", wc.writes)
	}
}

// TestHeldFrameLargeWrittenAtOnce: a marked frame of maxHeldBytes or more
// is written at once.
func TestHeldFrameLargeWrittenAtOnce(t *testing.T) {
	c, raw := rawPair(t)
	m := &Message{Kind: KindReport, Grads: [][]float32{make([]float32, maxHeldBytes/4)}}
	m.SetMore(true)
	want := frames(t, m)
	if len(want) < maxHeldBytes {
		t.Fatalf("frame is %d bytes, want at least %d", len(want), maxHeldBytes)
	}
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	readExactly(t, raw, want)
}

// TestHeldFrameDroppedOnClose: Close discards a held frame; the peer
// reads EOF and no byte of it.
func TestHeldFrameDroppedOnClose(t *testing.T) {
	c, raw := rawPair(t)
	if err := c.Send(heldReport()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(raw)
	if err != nil || len(got) != 0 {
		t.Fatalf("peer read %d bytes, err %v; want EOF and nothing", len(got), err)
	}
}

// TestHeldFrameBeforeBroadcast: SendBroadcast after a held frame writes
// both, the held one first.
func TestHeldFrameBeforeBroadcast(t *testing.T) {
	c, raw := rawPair(t)
	start := &Message{Kind: KindIterStart, Iter: 4, Params: [][]float32{{1, 2}, {3}}}
	rep := heldReport()
	want := frames(t, rep, start)
	if err := c.Send(rep); err != nil {
		t.Fatal(err)
	}
	if err := SendBroadcast(c, NewBroadcast(start)); err != nil {
		t.Fatal(err)
	}
	readExactly(t, raw, want)
}

// viaWrappers runs a held-frame case on a bare binary conn and through
// Instrument and FaultConn, which forward Send and Recv to it.
func viaWrappers(t *testing.T, run func(t *testing.T, tc *tcpConn, c Conn, raw net.Conn)) {
	for _, tc := range []struct {
		name string
		wrap func(Conn) Conn
	}{
		{"tcp", func(c Conn) Conn { return c }},
		{"instrument", func(c Conn) Conn { return Instrument(c, obs.NewRegistry()) }},
		{"fault", func(c Conn) Conn { return NewFaultConn(c, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc0, raw := rawPair(t)
			run(t, tc0, tc.wrap(tc0), raw)
		})
	}
}

// assign is a small frame for the raw end to send the conn under test.
func assign(seq int) *Message {
	return &Message{Kind: KindAssign, Iter: 2, Token: TokenInfo{ID: 64 + seq, Seq: seq, Lo: 2 * seq, Hi: 2*seq + 2, Owner: 1}}
}

// recvAsync runs c.Recv in the background.
func recvAsync(c Conn) <-chan *Message {
	got := make(chan *Message, 1)
	go func() {
		m, _ := c.Recv()
		got <- m
	}()
	return got
}

// TestHeldFrameLeavesWhenRecvBlocks: a Recv with nothing to read writes
// the held frames before it waits, with no further Send.
func TestHeldFrameLeavesWhenRecvBlocks(t *testing.T) {
	viaWrappers(t, func(t *testing.T, _ *tcpConn, c Conn, raw net.Conn) {
		rep, req := heldReport(), request()
		req.SetMore(true)
		want := frames(t, rep, req)
		for _, m := range []*Message{rep, req} {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		expectSilence(t, raw, 20*time.Millisecond)
		got := recvAsync(c)
		readExactly(t, raw, want)
		if _, err := raw.Write(frames(t, assign(5))); err != nil {
			t.Fatal(err)
		}
		if m := <-got; m == nil || m.Kind != KindAssign || m.Token.Seq != 5 {
			t.Fatalf("Recv returned %+v, want the assign", m)
		}
	})
}

// TestHeldFrameWaitsWhileFrameBuffered: a Recv that finds a whole frame
// already buffered returns it and writes nothing; the next Recv, with
// nothing left to read, writes the held frames.
func TestHeldFrameWaitsWhileFrameBuffered(t *testing.T) {
	viaWrappers(t, func(t *testing.T, tc *tcpConn, c Conn, raw net.Conn) {
		// Two small assigns in one loopback write arrive together, so the
		// first Recv buffers both.
		if _, err := raw.Write(frames(t, assign(3), assign(5))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if m, err := c.Recv(); err != nil || m.Token.Seq != 3 {
			t.Fatalf("first Recv: %+v, %v", m, err)
		}
		if !tc.frameBuffered() {
			t.Fatal("the second assign is not buffered after the first Recv")
		}
		rep := heldReport()
		if err := c.Send(rep); err != nil {
			t.Fatal(err)
		}
		if m, err := c.Recv(); err != nil || m.Token.Seq != 5 {
			t.Fatalf("second Recv: %+v, %v", m, err)
		}
		expectSilence(t, raw, 20*time.Millisecond)
		got := recvAsync(c)
		readExactly(t, raw, frames(t, rep))
		raw.Write(frames(t, &Message{Kind: KindShutdown}))
		<-got
	})
}

// TestHeldFramesBounded: marked frames are held only up to maxHeldBytes
// in total; the frame that would reach it is written at once, with every
// frame held before it.
func TestHeldFramesBounded(t *testing.T) {
	c, raw := rawPair(t)
	var want []byte
	for len(want) < maxHeldBytes {
		rep := heldReport()
		want = append(want, frames(t, rep)...)
		if err := c.Send(rep); err != nil {
			t.Fatal(err)
		}
	}
	readExactly(t, raw, want)
	expectSilence(t, raw, 20*time.Millisecond)
}

// TestRecvSkipsSendLockWhenNothingHeld: with nothing held, Recv never
// takes the send mutex, so a Send blocked in a write cannot stall it.
func TestRecvSkipsSendLockWhenNothingHeld(t *testing.T) {
	c, raw := rawPair(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	got := recvAsync(c)
	if _, err := raw.Write(frames(t, assign(7))); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m == nil || m.Token.Seq != 7 {
			t.Fatalf("Recv returned %+v, want the assign", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv waited for the send mutex with nothing held")
	}
}

// TestHeldFramesConcurrentRecv: a Recv on one goroutine writes what Send
// holds on another, as on the coordinator's conns, where the receive
// pump runs beside the loop that sends batches. Every frame reaches the
// peer once and in order.
func TestHeldFramesConcurrentRecv(t *testing.T) {
	a, b := tcpPair(t)
	SetTimeouts(a, 0, 10*time.Second)
	SetTimeouts(b, 0, 10*time.Second)
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the batching sender
		defer wg.Done()
		for i := 0; i < n; i++ {
			m := assign(i)
			m.SetMore(i%7 != 6 && i != n-1)
			if err := a.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the receive pump on the same conn
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := a.Recv(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the peer answers every frame
		defer wg.Done()
		for i := 0; i < n; i++ {
			m, err := b.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if m.Token.Seq != i {
				t.Errorf("frame %d carries seq %d", i, m.Token.Seq)
				return
			}
			if err := b.Send(request()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

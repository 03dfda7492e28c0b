package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"fela/internal/obs"
)

// TestMemConnRecvTimeout: a Recv on a Pair end with nothing to read
// times out at its deadline.
func TestMemConnRecvTimeout(t *testing.T) {
	a, _ := Pair()
	defer a.Close()
	SetTimeouts(a, 0, 20*time.Millisecond)
	start := time.Now()
	_, err := a.Recv()
	if Classify(err) != ClassTimeout {
		t.Fatalf("recv err = %v (class %v), want timeout", err, Classify(err))
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout fired far too late")
	}
}

// TestMemConnSendTimeout: pipe back-pressure times out a Send. With no
// reader, a Send past the pipe's bound waits for room, as on a full TCP
// window, until its deadline. Once the peer reads, a Send with room
// goes through again.
func TestMemConnSendTimeout(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	SetTimeouts(a, 20*time.Millisecond, 0)
	big := &Message{Kind: KindIterStart, Params: [][]float32{make([]float32, pipeBound/4)}}
	if err := a.Send(big); Classify(err) != ClassTimeout {
		t.Fatalf("send err = %v (class %v), want timeout", err, Classify(err))
	}
	drained := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, b.(*tcpConn).conn)
		drained <- err
	}()
	SetTimeouts(a, 5*time.Second, 0)
	if err := a.Send(big); err != nil {
		t.Fatalf("send with a reader: %v", err)
	}
	a.Close()
	if err := <-drained; err != nil {
		t.Fatalf("the reader ended with %v, want EOF", err)
	}
}

// TestPairPipeEnds: a Pair end is a net.Conn of its own: it names its
// addresses, SetDeadline bounds both directions, and a write to a peer
// that has closed fails at once as peer-gone.
func TestPairPipeEnds(t *testing.T) {
	a, b := Pair()
	pa := a.(*tcpConn).conn
	if addr := pa.LocalAddr(); addr.Network() != "pipe" || pa.RemoteAddr().String() != "pipe" {
		t.Fatalf("addresses %v %v", addr, pa.RemoteAddr())
	}
	pa.SetDeadline(time.Now().Add(-time.Second))
	if _, err := pa.Read(make([]byte, 1)); Classify(err) != ClassTimeout {
		t.Fatalf("read past the deadline: %v", err)
	}
	b.Close()
	if err := a.Send(&Message{Kind: KindRequest}); Classify(err) != ClassPeerGone {
		t.Fatalf("send to a closed peer: %v (class %v), want peer-gone", err, Classify(err))
	}
	a.Close()
}

// TestWrappersForwardTimeouts: SetTimeouts on Instrument's and
// FaultConn's wrappers reaches the conn they wrap, so a Recv from a
// silent peer times out.
func TestWrappersForwardTimeouts(t *testing.T) {
	for _, w := range []struct {
		name string
		wrap func(Conn) Conn
	}{
		{"instrument", func(c Conn) Conn { return Instrument(c, obs.NewRegistry()) }},
		{"fault", func(c Conn) Conn { return NewFaultConn(c, 1) }},
	} {
		a, b := Pair()
		c := w.wrap(a)
		if !SetTimeouts(c, 0, 20*time.Millisecond) {
			t.Fatalf("%s: SetTimeouts reported no deadlines", w.name)
		}
		if _, err := c.Recv(); Classify(err) != ClassTimeout {
			t.Fatalf("%s: recv from a silent peer: %v (class %v), want timeout", w.name, err, Classify(err))
		}
		c.Close()
		b.Close()
	}
}

func TestTCPConnRecvTimeout(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// Hold the connection open without sending.
		time.Sleep(500 * time.Millisecond)
		c.Close()
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	SetTimeouts(c, 0, 30*time.Millisecond)
	if _, err := c.Recv(); Classify(err) != ClassTimeout {
		t.Fatalf("recv err = %v (class %v), want timeout", err, Classify(err))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassUnknown},
		{ErrClosed, ClassClosed},
		{&net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}, ClassTimeout},
		{io.EOF, ClassPeerGone},
		{io.ErrUnexpectedEOF, ClassPeerGone},
		{net.ErrClosed, ClassClosed},
		{&net.OpError{Op: "write", Net: "pipe", Err: net.ErrClosed}, ClassClosed},
		{&CodecError{errors.New("bad frame")}, ClassCodec},
		{errors.New("mystery"), ClassUnknown},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	for _, c := range []Class{ClassUnknown, ClassTimeout, ClassPeerGone, ClassCodec, ClassClosed} {
		if c.String() == "" {
			t.Errorf("class %d has empty name", c)
		}
	}
}

func TestFaultConnDropSends(t *testing.T) {
	a, b := Pair()
	f := NewFaultConn(a, 1).DropSendsAfter(2)
	defer f.Close()
	for i := 0; i < 5; i++ {
		if err := f.Send(&Message{Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	SetTimeouts(b, 0, 50*time.Millisecond)
	got := 0
	for {
		if _, err := b.Recv(); err != nil {
			break
		}
		got++
	}
	if got != 2 {
		t.Fatalf("peer received %d messages, want 2 (rest dropped)", got)
	}
	if f.Sends() != 5 {
		t.Fatalf("Sends() = %d, want 5", f.Sends())
	}
}

func TestFaultConnCloseAfterSends(t *testing.T) {
	a, b := Pair()
	f := NewFaultConn(a, 1).CloseAfterSends(1)
	if err := f.Send(&Message{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(&Message{Iter: 1}); Classify(err) != ClassClosed {
		t.Fatalf("second send err = %v, want closed", err)
	}
	// The peer drains the delivered message, then finds its peer gone,
	// as over TCP.
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); Classify(err) != ClassPeerGone {
		t.Fatalf("peer recv err = %v, want peer-gone", err)
	}
}

func TestFaultConnGarble(t *testing.T) {
	a, b := Pair()
	defer b.Close()
	f := NewFaultConn(a, 1).GarbleRecvsAfter(1)
	defer f.Close()
	if err := b.Send(&Message{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(&Message{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recv(); Classify(err) != ClassCodec {
		t.Fatalf("garbled recv err = %v, want codec", err)
	}
}

func TestFaultConnHangReleasedByClose(t *testing.T) {
	a, _ := Pair()
	f := NewFaultConn(a, 1).HangRecvsAfter(0)
	done := make(chan error, 1)
	go func() {
		_, err := f.Recv()
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("hung recv returned before close")
	case <-time.After(30 * time.Millisecond):
	}
	f.Close()
	select {
	case err := <-done:
		if Classify(err) != ClassClosed {
			t.Fatalf("released recv err = %v, want closed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv not released by close")
	}
}

func TestFaultConnDelayDeterministic(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		f := NewFaultConn(nil, seed).DelayBy(time.Millisecond)
		var out []time.Duration
		for i := 0; i < 8; i++ {
			f.mu.Lock()
			out = append(out, f.delayLocked())
			f.mu.Unlock()
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across runs with the same seed: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDialRetryEventuallyConnects(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close() // free the port; rebind after a delay
	accepted := make(chan struct{})
	go func() {
		time.Sleep(40 * time.Millisecond)
		l2, err := Listen(addr)
		if err != nil {
			return
		}
		defer l2.Close()
		if c, err := l2.Accept(); err == nil {
			close(accepted)
			c.Close()
		}
	}()
	c, err := DialRetry(addr, 20, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("DialRetry failed: %v", err)
	}
	c.Close()
	select {
	case <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("listener never accepted")
	}
}

func TestDialRetryGivesUp(t *testing.T) {
	if _, err := DialRetry("127.0.0.1:1", 2, time.Millisecond); err == nil {
		t.Fatal("expected failure dialing a dead port")
	}
}

package transport

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fela/internal/obs"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	if err := a.Send(&Message{Kind: KindRequest, WID: 3}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindRequest || m.WID != 3 {
		t.Fatalf("got %+v", m)
	}
	// And the other direction.
	if err := b.Send(&Message{Kind: KindAssign, Token: TokenInfo{ID: 7, Lo: 8, Hi: 16}}); err != nil {
		t.Fatal(err)
	}
	m, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Token.ID != 7 || m.Token.Hi != 16 {
		t.Fatalf("got %+v", m)
	}
}

func TestPairOrdering(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	for i := 0; i < 20; i++ {
		if err := a.Send(&Message{Kind: KindReport, Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Iter != i {
			t.Fatalf("out of order: got %d at position %d", m.Iter, i)
		}
	}
}

// TestPairClose: a Pair end fails as a TCP conn does. After a local
// Close, Send and Recv on that end fail as ClassClosed, and the peer
// reads the message sent before the Close and then finds its peer gone,
// ClassPeerGone, on both streams. Closing a Pair end twice is safe.
func TestPairClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func(t testing.TB) (Conn, Conn)
	}{
		{"pipe", func(testing.TB) (Conn, Conn) { return Pair() }},
		{"tcp", tcpPair},
	} {
		a, b := tc.pair(t)
		if err := a.Send(&Message{Kind: KindShutdown}); err != nil {
			t.Fatal(err)
		}
		a.Close()
		_, recvErr := a.Recv()
		if m, err := b.Recv(); err != nil || m.Kind != KindShutdown {
			t.Fatalf("%s: the message sent before Close: %v, %v", tc.name, m, err)
		}
		_, peerErr := b.Recv()
		for _, c := range []struct {
			err  error
			want Class
		}{{a.Send(&Message{}), ClassClosed}, {recvErr, ClassClosed}, {peerErr, ClassPeerGone}} {
			if Classify(c.err) != c.want {
				t.Fatalf("%s: %v is %v, want %v", tc.name, c.err, Classify(c.err), c.want)
			}
		}
		if tc.name == "pipe" {
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			serverErr = err
			return
		}
		m.Iter++
		serverErr = c.Send(m)
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := &Message{
		Kind:   KindReport,
		WID:    2,
		Iter:   41,
		Token:  TokenInfo{ID: 5, Seq: 1, Lo: 16, Hi: 32, Owner: 2},
		Grads:  [][]float32{{1, 2, 3}, {4}},
		Params: [][]float32{{9, 8}},
	}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	if got.Iter != 42 || got.Token != want.Token || len(got.Grads) != 2 || got.Grads[0][2] != 3 {
		t.Fatalf("round trip mangled: %+v", got)
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
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
		c.Close()
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); err == nil {
		t.Fatal("expected error after peer close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

// TestCodecNamesOtherThanBinaryRefused: ListenCodec and DialCodec accept
// only CodecBinary, and refuse any other name before touching the
// network — the refused listen binds no port and the refused dial opens
// no connection.
func TestCodecNamesOtherThanBinaryRefused(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	for _, name := range []string{"gob", ""} {
		if l, err := ListenCodec(addr, name); err == nil {
			l.Close()
			t.Fatalf("ListenCodec(%q) accepted", name)
		}
	}
	l, err := Listen(addr)
	if err != nil {
		t.Fatalf("a refused ListenCodec left %s bound: %v", addr, err)
	}
	defer l.Close()
	if l, err := ListenCodec("127.0.0.1:0", CodecBinary); err != nil {
		t.Fatalf("ListenCodec(binary): %v", err)
	} else {
		l.Close()
	}

	raw := l.l.(*net.TCPListener)
	for _, name := range []string{"gob", ""} {
		if c, err := DialCodec(addr, name); err == nil {
			c.Close()
			t.Fatalf("DialCodec(%q) accepted", name)
		}
	}
	raw.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if c, err := raw.Accept(); err == nil {
		c.Close()
		t.Fatal("a refused DialCodec opened a connection")
	}
}

// TestKindTable is the single source of truth for protocol-kind
// coverage: one row per kind, checked against Kinds(), Kind.String and
// sampleMessages — a future kind added to the enum but
// forgotten anywhere else fails here.
func TestKindTable(t *testing.T) {
	table := []struct {
		kind Kind
		name string
	}{
		{KindRegister, "register"},
		{KindRequest, "request"},
		{KindAssign, "assign"},
		{KindReport, "report"},
		{KindIterStart, "iter-start"},
		{KindShutdown, "shutdown"},
		{KindJoin, "join"},
		{KindLeave, "leave"},
		{KindDrainAck, "drain-ack"},
		{KindSubmitJob, "submit-job"},
		{KindJobDone, "job-done"},
		{KindReassign, "reassign"},
	}
	if len(table) != len(Kinds()) {
		t.Fatalf("test table has %d kinds, Kinds() lists %d", len(table), len(Kinds()))
	}
	if len(sampleMessages()) != len(table) {
		t.Errorf("sampleMessages covers %d kinds, protocol has %d", len(sampleMessages()), len(table))
	}
	sampled := map[Kind]bool{}
	for _, m := range sampleMessages() {
		sampled[m.Kind] = true
	}
	seen := map[string]bool{}
	for i, row := range table {
		if Kinds()[i] != row.kind {
			t.Errorf("Kinds()[%d] = %v, want %v", i, Kinds()[i], row.kind)
		}
		if got := row.kind.String(); got != row.name {
			t.Errorf("%d.String() = %q, want %q", int(row.kind), got, row.name)
		}
		if seen[row.name] {
			t.Errorf("duplicate kind name %q", row.name)
		}
		seen[row.name] = true
		if !sampled[row.kind] {
			t.Errorf("sampleMessages has no %v message", row.kind)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestPairConcurrentTraffic(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send(&Message{Iter: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := 0
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	if got != n {
		t.Fatalf("received %d/%d", got, n)
	}
}

// tcpPair connects two TCP conns over loopback.
func tcpPair(t testing.TB) (Conn, Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	a, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.FailNow()
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestSendCapturesPayload is the Conn.Send contract workers rely on when
// they report from live gradient tensors: once Send returns, overwriting
// the sender's Grads/Params never changes what Recv returns.
func TestSendCapturesPayload(t *testing.T) {
	cases := []struct {
		name string
		pair func(t *testing.T) (Conn, Conn)
	}{
		{"mem", func(*testing.T) (Conn, Conn) { a, b := Pair(); return a, b }},
		{"tcp-binary", func(t *testing.T) (Conn, Conn) { return tcpPair(t) }},
		{"instrument", func(*testing.T) (Conn, Conn) {
			a, b := Pair()
			return Instrument(a, obs.NewRegistry()), b
		}},
		{"fault", func(t *testing.T) (Conn, Conn) {
			a, b := tcpPair(t)
			return NewFaultConn(a, 1).DelayBy(2 * time.Millisecond), b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			// The tail of backing is a section long enough for the binary
			// conn to write it from this slice instead of copying it.
			backing := make([]float32, 6+viewFloats)
			reset := func() {
				for i := range backing {
					backing[i] = float32(i + 1)
				}
			}
			reset()
			for _, m := range []*Message{
				{Kind: KindReport, Grads: [][]float32{backing[0:3], backing[3:4]}},
				{Kind: KindIterStart, Params: [][]float32{backing[4:6], backing[0:1]}},
				{Kind: KindReport, Grads: [][]float32{backing[6:], backing[0:2]}},
			} {
				want := [][]float32{}
				for _, s := range append(m.Grads, m.Params...) {
					want = append(want, append([]float32(nil), s...))
				}
				if err := a.Send(m); err != nil {
					t.Fatal(err)
				}
				for i := range backing {
					backing[i] = -99
				}
				got, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !equalSlices(append(got.Grads, got.Params...), want) {
					t.Fatalf("%v: received a payload that differs from the one sent", m.Kind)
				}
				got.Release()
				reset()
			}
		})
	}
}

// specialFloats are the bit patterns a float section must carry
// unchanged: signed zeros, denormals, infinities, and quiet and
// signalling NaNs with payloads.
func specialFloats() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // denormals
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7fffffff, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fa00000, // signalling NaNs
		0x3f800000, 0xc2f6e979, 0x7f7fffff, 0x00800000, // normals
	}
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

// TestFloatSectionBulkMatchesLoop holds the memmove float codec to the
// per-element loop, bit for bit, over special values, lengths 0, 1 and
// odd, and float sections starting at odd frame offsets.
func TestFloatSectionBulkMatchesLoop(t *testing.T) {
	special := specialFloats()
	for _, n := range []int{0, 1, 3, 7, len(special), 33, 1001} {
		fs := make([]float32, n)
		for i := range fs {
			fs[i] = special[(i*7)%len(special)]
		}
		for _, prefix := range []int{0, 1, 3, 5} {
			head := make([]byte, prefix)
			for i := range head {
				head[i] = byte(0xa0 + i)
			}
			want := append([]byte(nil), head...)
			want = append(want, make([]byte, 4*n)...)
			putFloats(want[prefix:], fs)
			got := appendFloats(append([]byte(nil), head...), fs)
			if string(got) != string(want) {
				t.Fatalf("n=%d offset=%d: appendFloats differs from the per-element loop", n, prefix)
			}

			// Decode the section back out of a frame with the same odd
			// offset: a group of one slice of n floats.
			payload := append([]byte(nil), head...)
			payload = appendSlices(payload, [][]float32{fs}, nil)
			r := &PayloadReader{data: payload, off: prefix}
			arena := getFloatArena(n)
			dec := r.slicesInto(arena)
			if r.err != nil {
				t.Fatal(r.err)
			}
			oracle := make([]float32, n)
			getFloats(oracle, want[prefix:])
			if n == 0 {
				if dec != nil && len(dec[0]) != 0 {
					t.Fatalf("n=0 decoded %v", dec)
				}
				continue
			}
			for i := range oracle {
				if math.Float32bits(dec[0][i]) != math.Float32bits(oracle[i]) ||
					math.Float32bits(oracle[i]) != math.Float32bits(fs[i]) {
					t.Fatalf("n=%d offset=%d element %d: bulk %#08x loop %#08x sent %#08x", n, prefix, i,
						math.Float32bits(dec[0][i]), math.Float32bits(oracle[i]), math.Float32bits(fs[i]))
				}
			}
		}
	}
}

package transport

// The zero-copy float path: a binary tcpConn writes each exact section
// of viewFloats or more by writev from the sender's slice, and Recv
// hands it out as an aligned view of the frame buffer. These tests hold
// both ends to the bytes AppendFrame writes and DecodeBinary reads.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"fela/internal/obs"
)

// viewReport is a report whose gradient sections have the given
// lengths, each filled with a pattern of its own.
func viewReport(wid int, lens ...int) *Message {
	m := &Message{Kind: KindReport, WID: wid, Iter: 2, Token: TokenInfo{ID: 5, Seq: 1, Lo: 8, Hi: 9, Owner: 1}, Loss: 0.25}
	for i, n := range lens {
		m.Grads = append(m.Grads, fill(n, func(j int) float32 { return float32(i*131+j%977) * 0.5 }))
	}
	return m
}

// TestViewCutWireBytes: the cut sections go on the wire where AppendFrame
// puts them, byte for byte — around the threshold, with several cut
// sections in both groups, after a held frame, and through Instrument
// and FaultConn.
func TestViewCutWireBytes(t *testing.T) {
	several := viewReport(3, viewFloats, 3, viewFloats+1, 1)
	several.Params = [][]float32{fill(viewFloats+5, func(j int) float32 { return float32(-j) })}
	cases := []struct {
		name string
		cuts int
		msgs []*Message
	}{
		{"below", 0, []*Message{viewReport(1, viewFloats-1)}},
		{"at", 1, []*Message{viewReport(1, viewFloats)}},
		{"above", 1, []*Message{viewReport(1, viewFloats+1)}},
		{"several", 3, []*Message{several}},
		{"after-held", 1, []*Message{heldReport(), viewReport(1, viewFloats)}},
	}
	wraps := []struct {
		name string
		wrap func(Conn) Conn
	}{
		{"tcp", func(c Conn) Conn { return c }},
		{"instrument", func(c Conn) Conn { return Instrument(c, obs.NewRegistry()) }},
		{"fault", func(c Conn) Conn { return NewFaultConn(c, 1) }},
	}
	for _, tc := range cases {
		last := tc.msgs[len(tc.msgs)-1]
		var cuts []floatCut
		if _, _, err := appendFrameMeta(nil, last, &cuts); err != nil {
			t.Fatal(err)
		}
		if len(cuts) != tc.cuts {
			t.Fatalf("%s: %d sections cut, want %d", tc.name, len(cuts), tc.cuts)
		}
		for _, w := range wraps {
			t.Run(tc.name+"/"+w.name, func(t *testing.T) {
				tc0, raw := rawPair(t)
				c := w.wrap(tc0)
				want := frames(t, tc.msgs...)
				sent := make(chan error, 1)
				go func() {
					var err error
					for _, m := range tc.msgs {
						if err == nil {
							err = c.Send(m)
						}
					}
					sent <- err
				}()
				readExactly(t, raw, want)
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// sameMessage reports whether two decoded messages carry the same
// fields, bit for bit (a NaN loss or float included): whether they
// encode to the same frame.
func sameMessage(t *testing.T, a, b *Message) bool {
	t.Helper()
	x, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := EncodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(x, y)
}

// inFrame reports whether s is a view of m's frame buffer.
func inFrame(m *Message, s []float32) bool {
	if m.frame == nil || len(s) == 0 {
		return false
	}
	f := *m.frame
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(f)))
	p := uintptr(unsafe.Pointer(&s[0]))
	return p >= lo && p+4*uintptr(len(s)) <= lo+uintptr(cap(f))
}

// firstOffset is the payload offset of frame's first float section.
func firstOffset(t *testing.T, frame []byte) int {
	t.Helper()
	payload := frame[frameHeader:]
	c := &tcpConn{br: bufio.NewReader(bytes.NewReader(payload))}
	off := c.firstSection(len(payload), false)
	if off < 0 {
		t.Fatal("frame has no float section")
	}
	return off
}

// TestViewRecvAligned: whatever offset mod 4 the first float section
// has in the payload (the varint widths before it vary), Recv decodes
// the frame to what DecodeBinary does, and the large section is a view
// of the frame while the small one is copied.
func TestViewRecvAligned(t *testing.T) {
	a, b := tcpPair(t)
	SetTimeouts(b, 0, 5*time.Second)
	residues := map[int]bool{}
	for _, wid := range []int{0, 64, 8192, 1 << 20} {
		for _, params := range []bool{false, true} {
			m := viewReport(wid, viewFloats+1, 5)
			if params {
				m.Kind, m.Params, m.Grads = KindIterStart, m.Grads, nil
			}
			data, err := EncodeBinary(m)
			if err != nil {
				t.Fatal(err)
			}
			residues[firstOffset(t, data)%4] = true
			want, err := DecodeBinary(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
			got, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !sameMessage(t, got, want) {
				t.Fatalf("wid %d params %v: Recv and DecodeBinary disagree", wid, params)
			}
			ss := append(got.Grads, got.Params...)
			if !inFrame(got, ss[0]) || inFrame(got, ss[1]) {
				t.Fatalf("wid %d params %v: want the large section viewed and the small one copied", wid, params)
			}
			if want.frame != nil {
				t.Fatal("DecodeBinary took a view of bytes it does not own")
			}
			got.Release()
			want.Release()
		}
	}
	if len(residues) != 4 {
		t.Fatalf("first sections landed at offsets mod 4 %v, want all four", residues)
	}
}

// TestViewReleaseReturnsFrame: Release hands a viewed message's frame
// back to the pool and clears its payload; a frame nothing was viewed
// from goes back before Recv returns.
func TestViewReleaseReturnsFrame(t *testing.T) {
	a, b := tcpPair(t)
	SetTimeouts(b, 0, 5*time.Second)
	if err := a.Send(viewReport(1, viewFloats, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	fp := got.frame
	if fp == nil || len(*fp) == 0 {
		t.Fatal("a viewed message does not own its frame")
	}
	got.Release()
	if got.frame != nil || got.pooled != nil || got.Grads != nil || got.Params != nil {
		t.Fatal("Release left the payload in place")
	}
	if len(*fp) != 0 {
		t.Fatal("Release did not return the frame to the pool")
	}
	got.Release() // idempotent
	if err := a.Send(viewReport(1, viewFloats-1)); err != nil {
		t.Fatal(err)
	}
	if got, err = b.Recv(); err != nil {
		t.Fatal(err)
	}
	if got.frame != nil || got.pooled == nil {
		t.Fatal("a frame below the threshold was viewed instead of copied")
	}
	got.Release()
}

// TestRecvHeaderAloneAllocatesLittle: a header claiming MaxFrameBytes,
// followed by EOF, costs the receiver no more than a first chunk — not
// the 256 MiB the header claims — and fails as the torn stream it is.
func TestRecvHeaderAloneAllocatesLittle(t *testing.T) {
	for _, version := range []byte{frameVersion, frameVersion2} {
		a, b := net.Pipe()
		c := newTCPConn(a)
		hdr := []byte{frameMagic0, frameMagic1, version, byte(KindReport), 0, 0, 0, 0, byte(CompressTopK), 0, 0, 0}
		binary.LittleEndian.PutUint32(hdr[4:8], MaxFrameBytes)
		if version == frameVersion {
			hdr = hdr[:frameHeader]
		}
		go func() {
			b.Write(hdr)
			b.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Recv()
		runtime.ReadMemStats(&after)
		c.Close()
		if Classify(err) != ClassPeerGone {
			t.Fatalf("v%d: header then EOF gave %v (%v), want peer-gone", version, err, Classify(err))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Fatalf("v%d: a lone header cost %d bytes of allocation, want at most 4 MiB", version, got)
		}
	}
}

// TestRecvBufferFitsFrame: a frame above smallFrame is read into a
// buffer that fits the largest frame so far with at most an eighth to
// spare, not one rounded up to a power of two. Iter-starts of one size, and then reports whose
// size wanders by a few per cent from frame to frame, as top-k reports
// do, reuse the buffer: twenty of each allocate less than three
// frames' worth, where a fresh buffer per frame would be twenty. (The
// race detector drops pooled buffers at random, so under it only the
// fit is checked.)
func TestRecvBufferFitsFrame(t *testing.T) {
	// Two collections empty the pools of buffers other frames left, and
	// none runs after them: one inside a measured window would empty the
	// pools again, and the window would pay for fresh buffers.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tx, rx := tcpPair(t)
	const floats = 300_000
	sizes := make([]int, 20)
	for i := range sizes {
		sizes[i] = floats
	}
	for i := 0; i < 20; i++ {
		sizes = append(sizes, floats+[]int{0, 6000, 2500, 9000, 4000}[i%5])
	}
	msgs := make([]*Message, len(sizes))
	for i, n := range sizes {
		msgs[i] = &Message{Kind: KindIterStart, Iter: i, Params: [][]float32{make([]float32, n)}}
		if i >= 20 {
			msgs[i] = &Message{Kind: KindReport, Token: TokenInfo{Hi: 1}, Grads: [][]float32{make([]float32, n)}}
		}
	}
	var before, after runtime.MemStats
	largest := 0 // the largest payload so far: a buffer is reused for any frame it fits
	for i, n := range sizes {
		if i == 1 || i == 21 {
			runtime.ReadMemStats(&before)
		}
		m := msgs[i]
		go func() {
			if err := tx.Send(m); err != nil {
				t.Error(err)
			}
		}()
		got, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.frame == nil {
			t.Fatalf("frame %d: %d floats were copied, not viewed", i, n)
		}
		largest = max(largest, 4*n)
		if c := cap(*got.frame); c < 4*n || c > largest+largest/8+64 {
			t.Fatalf("frame %d of %d floats read into a buffer of %d bytes, want %d to %d", i, n, c, 4*n, largest+largest/8+64)
		}
		got.Release()
		if i == 19 || i == 39 {
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc > 3*4*floats {
				t.Fatalf("frames %d–%d allocated %d bytes, want under %d", i-18, i, alloc, 3*4*floats)
			}
		}
	}
}

// FuzzRecvBinary feeds bytes through a pipe into a binary conn's Recv,
// which must reach DecodeBinary's verdict on the same frame: a frame
// Recv accepts decodes to the same message, and a frame DecodeBinary
// accepts is received. The same bytes are also received on a conn whose
// destination (SetParamsDest) has fuzzDest's shape, and on one whose
// destination has the shape of the frame's params when it has any: each
// must give the message Recv gave without one, or an error of the same
// class, and an exact iter-start lands in a destination of its own
// shape. Seeds include frames large enough to be viewed.
func FuzzRecvBinary(f *testing.F) {
	seed := func(m *Message) []byte {
		data, err := EncodeBinary(m)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, m := range sampleMessages() {
		data := seed(m)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(bytes.Clone(data), 0xfe, 0x7a))
	}
	c := compressedSample()
	c.SetGradCodec(CompressTopK)
	f.Add(seed(c))
	f.Add(seed(&Message{Kind: KindReport, Loss: math.NaN(), Grads: [][]float32{{float32(math.NaN())}}}))
	f.Add(seed(rank1Sample()))
	r1 := viewReport(64, 0, viewFloats+1)
	r1.SetRank1([]Rank1Section{{X: fill(5, func(j int) float32 { return float32(j) }), D: []float32{1, -2}}, {}})
	f.Add(seed(r1))
	for _, wid := range []int{0, 64, 8192} {
		data := seed(viewReport(wid, viewFloats+1, 3))
		f.Add(data)
		f.Add(data[:len(data)-1])
		mut := bytes.Clone(data)
		mut[len(mut)-20] ^= 0xff // in the span ids: still a valid frame
		f.Add(mut)
	}
	f.Add(seed(iterStartOf(viewFloats+1, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rerr := recvOn(data, nil)
		defer got.Release()
		want, derr := DecodeBinary(data)
		defer want.Release()
		shapes := [][]int{fuzzDest}
		if got != nil && len(got.Params) > 0 {
			shapes = append(shapes, lensOf(got.Params))
		}
		for i, shape := range shapes {
			dest := zeros(shape...)
			in, err := recvOn(data, dest)
			if (err == nil) != (rerr == nil) || Classify(err) != Classify(rerr) {
				t.Fatalf("destination %v: Recv gave %v, %v without one", shape, err, rerr)
			}
			if err == nil && !sameMessage(t, in, got) {
				t.Fatalf("destination %v: received %+v, %+v without one", shape, in, got)
			}
			if i == 1 && got.Kind == KindIterStart && data[2] == frameVersion && len(got.Grads) == 0 && landedIn(in, dest) != len(dest) {
				t.Fatalf("an exact iter-start did not land in a destination of its own shape %v", shape)
			}
			in.Release()
		}
		if rerr != nil {
			if derr == nil {
				t.Fatalf("Recv refused a frame DecodeBinary accepts: %v", rerr)
			}
			if cl := Classify(rerr); cl != ClassCodec && cl != ClassPeerGone {
				t.Fatalf("Recv error classified %v: %v", cl, rerr)
			}
			return
		}
		header := frameHeader
		if data[2] == frameVersion2 {
			header = frameHeaderV2
		}
		n := header + int(binary.LittleEndian.Uint32(data[4:8]))
		one, err := DecodeBinary(data[:n])
		if err != nil {
			t.Fatalf("Recv accepted a frame DecodeBinary refuses: %v", err)
		}
		defer one.Release()
		if !sameMessage(t, got, one) {
			t.Fatalf("Recv and DecodeBinary disagree:\n got %+v\nwant %+v", got, one)
		}
	})
}

// recvOn writes data into a pipe and closes it, and returns the first
// message a binary conn on its far end receives with dest as its
// destination (nil for none).
func recvOn(data []byte, dest [][]float32) (*Message, error) {
	a, b := net.Pipe()
	conn := newTCPConn(a)
	defer conn.Close()
	SetParamsDest(conn, dest)
	go func() {
		b.Write(data)
		b.Close()
	}()
	return conn.Recv()
}

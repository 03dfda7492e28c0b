package transport_test

// A worker whose iter-start is torn inside the frame: the stream ends at
// a section boundary or a byte either side of one, and the worker must
// exit with a peer-gone error, having trained nothing.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// TestTornIterStart cuts an iter-start for a worker's model (one section
// above the 64 KiB view threshold) at the end of its header, at the
// start of its params group, and at the start of each section's length,
// floats and end, and a byte either side of each, over the pipe and over
// TCP.
func TestTornIterStart(t *testing.T) {
	model := func() *minidnn.Network { return minidnn.NewMLP(3, 160, 128, 4) }
	m := &transport.Message{Kind: transport.KindIterStart, Iter: 1}
	for _, p := range model().Params() {
		m.Params = append(m.Params, p.Data)
	}
	frame, err := transport.EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	group := bytes.Index(frame, transport.AppendFloatGroup(nil, m.Params))
	bounds := []int{8, group}
	off := group + len(binary.AppendUvarint(nil, uint64(len(m.Params))))
	for _, p := range m.Params {
		data := off + len(binary.AppendUvarint(nil, uint64(len(p))))
		off = data + 4*len(p)
		bounds = append(bounds, data-len(binary.AppendUvarint(nil, uint64(len(p)))), data, off)
	}
	var cuts []int
	for _, b := range bounds {
		for _, c := range []int{b - 1, b, b + 1} {
			if c > 0 && c < len(frame) && !slices.Contains(cuts, c) {
				cuts = append(cuts, c)
			}
		}
	}
	for _, stream := range []struct {
		name string
		pair func(t *testing.T) (transport.Conn, net.Conn)
	}{
		{"pipe", func(*testing.T) (transport.Conn, net.Conn) { return transport.RawPipe() }},
		{"tcp", rawTCP},
	} {
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("%s/%d", stream.name, cut), func(t *testing.T) {
				c, raw := stream.pair(t)
				defer c.Close()
				cfg := rt.Config{Workers: 1, TotalBatch: 8, TokenBatch: 8, Iterations: 1, LR: 0.05}
				w := rt.NewWorker(0, model(), minidnn.SyntheticBlobs(7, 8, 160, 4), cfg)
				done := make(chan error, 1)
				go func() { done <- w.Run(c) }()
				// The registration first, so the worker fails on the frame.
				var hdr [8]byte
				if _, err := io.ReadFull(raw, hdr[:]); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(raw, make([]byte, binary.LittleEndian.Uint32(hdr[4:]))); err != nil {
					t.Fatal(err)
				}
				if _, err := raw.Write(frame[:cut]); err != nil {
					t.Fatal(err)
				}
				raw.Close()
				err := <-done
				if transport.Classify(err) != transport.ClassPeerGone || !strings.Contains(err.Error(), "recv") {
					t.Fatalf("worker returned %v (%v), want peer-gone", err, transport.Classify(err))
				}
				if st := w.Status(); st.TokensTrained != 0 {
					t.Fatalf("worker trained %d tokens", st.TokensTrained)
				}
			})
		}
	}
}

// rawTCP returns a conn dialled over loopback TCP and the raw socket it
// was accepted on.
func rawTCP(t *testing.T) (transport.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return c, raw
}

package transport

// Iter-starts received in place: a conn given a destination reads an
// exact iter-start's parameter sections from the stream straight into
// it, and receives every other frame as it would without one.

import (
	"testing"

	"fela/internal/obs"
)

// fuzzDest is the shape of the fixed destination FuzzRecvBinary receives
// every input into, and of its committed iter-start seeds (gencorpus):
// train-comm's four parameter tensors, NewMLP(·,1024,1024,16), with the
// input and hidden widths cut from 1024 to 32.
var fuzzDest = []int{32 * 32, 32, 32 * 16, 16}

// zeros returns zeroed sections of the given lengths.
func zeros(lens ...int) [][]float32 {
	out := make([][]float32, len(lens))
	for i, n := range lens {
		out[i] = make([]float32, n)
	}
	return out
}

// lensOf is the section lengths of ss.
func lensOf(ss [][]float32) []int {
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = len(s)
	}
	return out
}

// iterStartOf is an iter-start whose parameter sections have the given
// lengths, each filled with a pattern of its own.
func iterStartOf(lens ...int) *Message {
	m := &Message{Kind: KindIterStart, Iter: 4, Span: obs.SpanContext{TraceID: 7, SpanID: 9}}
	for i, n := range lens {
		m.Params = append(m.Params, fill(n, func(j int) float32 { return float32(i*131+j%977) * 0.25 }))
	}
	return m
}

// landedIn is how many leading params of m are dest's own arrays.
func landedIn(m *Message, dest [][]float32) int {
	n := 0
	for n < min(len(m.Params), len(dest)) && len(dest[n]) > 0 && len(m.Params[n]) == len(dest[n]) && &m.Params[n][0] == &dest[n][0] {
		n++
	}
	return n
}

// TestParamsDestViaWrappers: an iter-start received through Instrument
// and FaultConn, over the pipe and over TCP, lands in the destination
// set on the wrapper: its params are the destination's backing arrays,
// and it holds no frame buffer or arena. Cleared, the destination takes
// nothing more.
func TestParamsDestViaWrappers(t *testing.T) {
	sent := iterStartOf(lensOf(benchReport(CompressExact, func(int) float32 { return 0 }).Grads)...)
	for _, w := range []struct {
		name string
		wrap func(Conn) Conn
	}{
		{"tcp", func(c Conn) Conn { return c }},
		{"instrument", func(c Conn) Conn { return Instrument(c, obs.NewRegistry()) }},
		{"fault", func(c Conn) Conn { return NewFaultConn(c, 1) }},
	} {
		for _, stream := range []struct {
			name string
			pair func(testing.TB) (Conn, Conn)
		}{
			{"pipe", func(testing.TB) (Conn, Conn) { return Pair() }},
			{"tcp", tcpPair},
		} {
			t.Run(w.name+"/"+stream.name, func(t *testing.T) {
				tx, rx := stream.pair(t)
				defer tx.Close()
				c := w.wrap(rx)
				defer c.Close()
				dest := zeros(lensOf(sent.Params)...)
				if !SetParamsDest(c, dest) {
					t.Fatal("SetParamsDest reported no destination")
				}
				for round, want := range []int{len(dest), 0} {
					go func() {
						if err := tx.Send(sent); err != nil {
							t.Error(err)
						}
					}()
					got, err := c.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if n := landedIn(got, dest); n != want {
						t.Fatalf("round %d: %d sections landed in the destination, want %d", round, n, want)
					}
					if want > 0 && (got.frame != nil || got.pooled != nil) {
						t.Fatalf("an iter-start received in place holds a frame buffer or arena")
					}
					if !sameMessage(t, got, sent) {
						t.Fatalf("round %d: received %+v, sent %+v", round, got, sent)
					}
					got.Release()
					SetParamsDest(c, nil)
				}
			})
		}
	}
}

// TestParamsDestMismatch: a frame that is not an exact iter-start of the
// destination's shape is received as DecodeBinary decodes it, with the
// sections before the first one that does not match landed in the
// destination, and the frame after it is received as usual.
func TestParamsDestMismatch(t *testing.T) {
	with := func(m *Message, grads ...[]float32) *Message {
		m.Grads = grads
		return m
	}
	for _, tc := range []struct {
		name   string
		m      *Message
		landed int
	}{
		{"match", iterStartOf(fuzzDest...), 4},
		{"count", iterStartOf(fuzzDest[:3]...), 0},
		{"extra-section", iterStartOf(append(fuzzDest, 1)...), 0},
		{"first-section-short", iterStartOf(fuzzDest[0]-1, 32, 512, 16), 0},
		{"third-section-short", iterStartOf(1024, 32, 511, 16), 2},
		{"last-section-long", iterStartOf(1024, 32, 512, 17), 3},
		{"grads", with(iterStartOf(fuzzDest...), []float32{1}), 0},
		{"assign", &Message{Kind: KindAssign, Token: TokenInfo{Hi: 1}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx, rx := Pair()
			defer tx.Close()
			defer rx.Close()
			dest := zeros(fuzzDest...)
			SetParamsDest(rx, dest)
			frame, err := EncodeBinary(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DecodeBinary(frame)
			if err != nil {
				t.Fatal(err)
			}
			defer want.Release()
			next := iterStartOf(fuzzDest...)
			next.Iter = 5
			go func() {
				for _, m := range []*Message{tc.m, next} {
					if err := tx.Send(m); err != nil {
						t.Error(err)
					}
				}
			}()
			got, err := rx.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !sameMessage(t, got, want) {
				t.Fatalf("received %+v, DecodeBinary gives %+v", got, want)
			}
			if n := landedIn(got, dest); n != tc.landed {
				t.Fatalf("%d sections landed in the destination, want %d", n, tc.landed)
			}
			got.Release()
			if got, err = rx.Recv(); err != nil || !sameMessage(t, got, next) || landedIn(got, dest) != 4 {
				t.Fatalf("the next frame: %+v (%v), want %+v in the destination", got, err, next)
			}
		})
	}
}

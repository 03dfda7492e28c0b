package rt

import (
	"strings"
	"testing"

	"fela/internal/minidnn"
	"fela/internal/transport"
)

// pumpedConn closes pumped on its second Recv: the coordinator's pump
// calls Recv again only after it has queued the first message, so a
// message another conn sends once pumped is closed queues behind it.
type pumpedConn struct {
	transport.Conn
	recvs  int
	pumped chan struct{}
}

func (c *pumpedConn) Recv() (*transport.Message, error) {
	if c.recvs++; c.recvs == 2 {
		close(c.pumped)
	}
	return c.Conn.Recv()
}

// TestRegistrationRejections: a first message that is not a register,
// a worker id out of range, and a duplicate worker id each reject the
// offending connection. Conn 0 is a real worker 0; conn 1 misbehaves
// (for the duplicate, only after worker 0's register is queued). Conn 1
// is closed with a protocol fault naming it, and the session finishes on
// worker 0, bit-identical to Sequential — no deadline needed.
func TestRegistrationRejections(t *testing.T) {
	cases := []struct {
		name string
		msg  transport.Message
		want string
	}{
		{"not a register", transport.Message{Kind: transport.KindRequest, WID: 1}, "conn 1: expected register"},
		{"wid out of range", transport.Message{Kind: transport.KindRegister, WID: 7}, "conn 1: worker id 7 out of range"},
		{"duplicate wid", transport.Message{Kind: transport.KindRegister, WID: 0}, "conn 1: duplicate worker id 0"},
	}
	for _, tc := range cases {
		cfg := baseCfg()
		cfg.Workers = 2
		co, err := NewCoordinator(mlp(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s0, c0 := transport.Pair()
		s1, c1 := transport.Pair()
		p0 := &pumpedConn{Conn: s0, pumped: make(chan struct{})}
		go NewWorker(0, mlp(), blobs(), cfg).Run(c0)
		go func() {
			<-p0.pumped
			c1.Send(&tc.msg)
		}()
		res, err := co.Run([]transport.Conn{p0, s1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := c1.Recv(); err == nil {
			t.Errorf("%s: the offending conn is still open", tc.name)
		}
		protocol := false
		for _, f := range res.Faults {
			protocol = protocol || f.Phase == "register" && f.Class == "protocol" && strings.Contains(f.Detail, tc.want)
		}
		if !protocol {
			t.Errorf("%s: faults %v, want a register protocol fault containing %q", tc.name, res.Faults, tc.want)
		}
		seq, err := Sequential(mlp(), blobs(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !minidnn.ParamsEqual(seq.Params, res.Params) {
			t.Errorf("%s: the session on the remaining worker diverged from Sequential", tc.name)
		}
	}
}

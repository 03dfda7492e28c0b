package rt

import (
	"strings"
	"testing"

	"fela/internal/obs"
	"fela/internal/transport"
)

// TestSessionFlightRecorder runs a real in-process session with a private
// flight ring and checks the protocol history is recorded with trace ids
// that intersect the span tracer's traces — the property that makes a
// JSONL flight dump navigable from a trace export and vice versa.
func TestSessionFlightRecorder(t *testing.T) {
	cfg := baseCfg()
	cfg.Spans = obs.NewTracer("test")
	cfg.Flight = obs.NewFlightRecorder(1 << 12)

	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	serverConns := make([]transport.Conn, cfg.Workers)
	errs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		w := NewWorker(wid, mlp(), blobs(), cfg)
		go func() { errs <- w.Run(client) }()
	}
	res, err := co.Run(serverConns)
	requireClean(t, res, err)
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-errs; werr != nil {
			t.Fatal(werr)
		}
	}

	tokens := cfg.Iterations * (cfg.TotalBatch / cfg.TokenBatch)
	events := cfg.Flight.Snapshot(0)
	byEvent := map[string]int{}
	for _, ev := range events {
		if ev.Comp != "rt" {
			t.Fatalf("unexpected component %q in session ring", ev.Comp)
		}
		byEvent[ev.Event]++
	}
	if byEvent["token.assign"] != tokens {
		t.Errorf("token.assign events = %d, want %d", byEvent["token.assign"], tokens)
	}
	if byEvent["barrier"] != cfg.Iterations {
		t.Errorf("barrier events = %d, want %d", byEvent["barrier"], cfg.Iterations)
	}

	// Trace ids in the ring must be real span traces.
	spanTraces := map[string]bool{}
	for _, sp := range cfg.Spans.Events() {
		spanTraces[sp.Ctx.TraceHex()] = true
	}
	linked := 0
	for _, ev := range events {
		if ev.Trace == "" {
			continue
		}
		linked++
		if !spanTraces[ev.Trace] {
			t.Fatalf("flight event %s carries trace %s unknown to the tracer", ev.Event, ev.Trace)
		}
	}
	if linked == 0 {
		t.Fatal("no flight event carries a trace id")
	}

	// Assign events carry worker id, iteration and token seq.
	for _, ev := range events {
		if ev.Event != "token.assign" {
			continue
		}
		if ev.Worker < 0 || ev.Iter < 0 || !strings.HasPrefix(ev.Detail, "seq=") {
			t.Fatalf("malformed assign event: %+v", ev)
		}
	}

	// Sequence numbers are strictly increasing in snapshot order.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

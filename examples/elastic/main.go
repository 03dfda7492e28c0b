// Elastic membership: one training session that scales 2 -> 4 -> 1
// workers while it runs. Two workers start the session; two more join at
// the first iteration barrier (admitted by the elastic controller); near
// the end three workers drain out gracefully, leaving one survivor to
// finish. The online re-tuner reshapes the token distribution from live
// per-iteration token rates after every scale event, and the final model is
// verified bit-for-bit against sequential SGD — membership changes who
// computes, never what is computed.
package main

import (
	"fmt"
	"log"
	"time"

	"fela/internal/elastic"
	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/trace"
	"fela/internal/transport"
)

func mk() *minidnn.Network   { return minidnn.NewMLP(42, 16, 32, 4) }
func data() *minidnn.Dataset { return minidnn.SyntheticBlobs(7, 256, 16, 4) }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctrl, err := elastic.NewController(elastic.Config{MinWorkers: 1})
	if err != nil {
		return err
	}
	tr := &trace.Trace{}
	cfg := rt.Config{
		Workers:       2,
		TotalBatch:    64,
		TokenBatch:    8,
		Iterations:    12,
		LR:            0.05,
		WorkerTimeout: 2 * time.Second,
		Elastic:       ctrl,
		Trace:         tr,
		// The founding workers yield a little each iteration so the
		// joiners demonstrably train; workers 0, 2 and 3 drain out at
		// iteration 8, scaling the session down to worker 1 alone.
		Delay: func(iter, wid int) time.Duration {
			if wid <= 1 {
				return 5 * time.Millisecond
			}
			return 0
		},
		Drain: func(iter, wid int) bool {
			return iter >= 8 && wid != 1
		},
	}

	co, err := rt.NewCoordinator(mk(), cfg)
	if err != nil {
		return err
	}

	// The two founding workers.
	conns := make([]transport.Conn, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		conns[wid] = server
		w := rt.NewWorker(wid, mk(), data(), cfg)
		go func() { _ = w.Run(client) }()
	}
	// Two joiners, connected before the session starts; the controller
	// admits them at the first iteration barrier, and their first
	// iter-start delivers the current model snapshot.
	for i := 0; i < 2; i++ {
		server, client := transport.Pair()
		if err := co.Admit(server); err != nil {
			return err
		}
		go func() { _, _ = rt.Join(client, mk(), data(), cfg) }()
	}

	res, err := co.Run(conns)
	if err != nil {
		return err
	}

	fmt.Println("elastic session: 2 workers -> 4 (join at barrier 0) -> 1 (drains at barrier 8)")
	for i := 0; i < len(res.Losses); i += 3 {
		fmt.Printf("  iteration %2d: loss %.6f\n", i, res.Losses[i])
	}
	fmt.Printf("\nscale events: %v\n", metrics.ScaleSequence(res.Scales))
	for _, ev := range res.Scales {
		fmt.Println("  " + ev.String())
	}
	fmt.Printf("tokens per worker: %v (steals: %d, reassigned: %d)\n",
		res.TokensByWorker, res.Steals, res.Reassigned)

	ret := ctrl.Retuner()
	fmt.Printf("\nonline re-tunes: %d (token shares proportional to live rates)\n", ret.Retunes())
	for wid := range res.TokensByWorker {
		fmt.Printf("  worker %d: rate %.0f tokens/s\n", wid, ret.Rate(wid))
	}
	fmt.Printf("final shares: %v\n", ret.Shares())

	fmt.Println("\ntimeline (J=join L=leave):")
	fmt.Println(tr.Timeline(76))

	seq, err := sequential(cfg)
	if err != nil {
		return err
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		return fmt.Errorf("elastic training diverged from the sequential reference")
	}
	fmt.Println("verified: the elastically-scaled result is BIT-IDENTICAL to sequential SGD.")
	return nil
}

// sequential runs the reference computation with the same arithmetic
// configuration (membership hooks are ignored by Sequential).
func sequential(cfg rt.Config) (*rt.Result, error) {
	return rt.Sequential(mk(), data(), cfg)
}

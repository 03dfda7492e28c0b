// Command felasim runs a single simulated training and prints the
// measured throughput — a scriptable entry point to the simulator.
//
// Usage examples:
//
//	felasim -model VGG19 -batch 256 -iters 100 -system fela
//	felasim -model GoogLeNet -batch 512 -system dp -straggler rr -d 3
//	felasim -model VGG19 -batch 128 -system fela -weights 1,1,8 -subset 1
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"fela"
	"fela/internal/baseline"
	"fela/internal/cluster"
	"fela/internal/obs"
)

// simOpts bundles every flag so tests can drive run directly.
type simOpts struct {
	model      string
	batch      int
	iters      int
	system     string
	weights    string
	subset     int
	straggler  string
	d          float64
	p          float64
	staleness  int
	metricsOut string
}

func main() {
	var o simOpts
	flag.StringVar(&o.model, "model", "VGG19", "benchmark model (VGG19, GoogLeNet, AlexNet, LeNet-5)")
	flag.IntVar(&o.batch, "batch", 256, "total batch size per iteration")
	flag.IntVar(&o.iters, "iters", 100, "iterations to run")
	flag.StringVar(&o.system, "system", "fela", "system to run: fela, dp, mp, hp")
	flag.StringVar(&o.weights, "weights", "", "comma-separated parallelism weights (empty = tune)")
	flag.IntVar(&o.subset, "subset", 0, "CTD conditional subset size (0 = tuner's choice)")
	flag.StringVar(&o.straggler, "straggler", "none", "straggler scenario: none, rr, prob")
	flag.Float64Var(&o.d, "d", 6, "straggler delay in seconds")
	flag.Float64Var(&o.p, "p", 0.3, "straggler probability (prob scenario)")
	flag.IntVar(&o.staleness, "staleness", 0, "SSP staleness bound for fela (0 = BSP)")
	flag.StringVar(&o.metricsOut, "metrics-out", "",
		"fela only: write the Token Server's final telemetry in Prometheus text format to this file (- = stdout)")
	flag.Parse()

	obs.FlightDumpOnSIGQUIT("felasim")

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "felasim:", err)
		os.Exit(1)
	}
}

func run(o simOpts) error {
	m, err := fela.ModelByName(o.model)
	if err != nil {
		return err
	}
	// A delay that is not a finite non-negative number of seconds, or a
	// probability outside [0, 1], would not run the scenario asked for:
	// the simulator would panic on a NaN time or silently run another.
	badDelay := math.IsNaN(o.d) || math.IsInf(o.d, 0) || o.d < 0
	var scen fela.Scenario
	switch o.straggler {
	case "none":
		scen = nil
	case "rr":
		if badDelay {
			return fmt.Errorf("straggler delay -d %v is not a finite, non-negative number of seconds", o.d)
		}
		scen = fela.RoundRobinStraggler(o.d, fela.Testbed8().N)
	case "prob":
		if badDelay {
			return fmt.Errorf("straggler delay -d %v is not a finite, non-negative number of seconds", o.d)
		}
		if !(o.p >= 0 && o.p <= 1) {
			return fmt.Errorf("straggler probability -p %v is outside [0, 1]", o.p)
		}
		scen = fela.ProbabilityStraggler(o.p, o.d)
	default:
		return fmt.Errorf("unknown straggler scenario %q", o.straggler)
	}

	var res fela.RunResult
	var reg *fela.Registry
	switch o.system {
	case "fela":
		var weights []int
		if o.weights != "" {
			for _, part := range strings.Split(o.weights, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("bad weights %q: %w", o.weights, err)
				}
				weights = append(weights, w)
			}
		}
		if o.metricsOut != "" {
			reg = obs.NewRegistry()
		}
		res, err = fela.Simulate(fela.SimConfig{
			Model: m, TotalBatch: o.batch, Iterations: o.iters,
			Weights: weights, SubsetSize: o.subset, Scenario: scen,
			Staleness: o.staleness, Metrics: reg,
		})
	case "dp", "mp", "hp":
		cfg := baseline.Config{Model: m, TotalBatch: o.batch, Iterations: o.iters, Scenario: scen}
		c := cluster.New(fela.Testbed8())
		switch o.system {
		case "dp":
			res, err = baseline.RunDP(c, cfg)
		case "mp":
			res, err = baseline.RunMP(c, cfg)
		case "hp":
			res, err = baseline.RunHP(c, cfg)
		}
	default:
		return fmt.Errorf("unknown system %q", o.system)
	}
	if err != nil {
		return err
	}
	fmt.Printf("system=%s model=%s batch=%d iterations=%d\n", res.System, res.Model, res.TotalBatch, res.Iterations)
	fmt.Printf("total time:        %.3f s (simulated)\n", res.TotalTime)
	fmt.Printf("avg iteration:     %.4f s\n", res.AvgIterTime())
	fmt.Printf("avg throughput:    %.1f samples/s (Eq. 3)\n", res.AvgThroughput())
	fmt.Printf("network payload:   %.1f MB/iteration\n", float64(res.BytesSent)/float64(res.Iterations)/1e6)
	if reg != nil {
		w := os.Stdout
		if o.metricsOut != "-" {
			f, err := os.Create(o.metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
			fmt.Printf("token server metrics: %s\n", o.metricsOut)
		}
		if err := reg.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

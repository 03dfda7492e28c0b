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

func main() {
	modelName := flag.String("model", "VGG19", "benchmark model (VGG19, GoogLeNet, AlexNet, LeNet-5)")
	batch := flag.Int("batch", 256, "total batch size per iteration")
	iters := flag.Int("iters", 100, "iterations to run")
	system := flag.String("system", "fela", "system to run: fela, dp, mp, hp")
	weightsFlag := flag.String("weights", "", "comma-separated parallelism weights (empty = tune)")
	subset := flag.Int("subset", 0, "CTD conditional subset size (0 = tuner's choice)")
	stragKind := flag.String("straggler", "none", "straggler scenario: none, rr, prob")
	d := flag.Float64("d", 6, "straggler delay in seconds")
	p := flag.Float64("p", 0.3, "straggler probability (prob scenario)")
	staleness := flag.Int("staleness", 0, "SSP staleness bound for fela (0 = BSP)")
	metricsOut := flag.String("metrics-out", "",
		"fela only: write the Token Server's final telemetry in Prometheus text format to this file (- = stdout)")
	flag.Parse()

	obs.FlightDumpOnSIGQUIT("felasim")

	if err := run(*modelName, *system, *weightsFlag, *stragKind, *metricsOut, *batch, *iters, *subset, *staleness, *d, *p); err != nil {
		fmt.Fprintln(os.Stderr, "felasim:", err)
		os.Exit(1)
	}
}

func run(modelName, system, weightsFlag, stragKind, metricsOut string, batch, iters, subset, staleness int, d, p float64) error {
	m, err := fela.ModelByName(modelName)
	if err != nil {
		return err
	}
	// A delay that is not a finite non-negative number of seconds, or a
	// probability outside [0, 1], would not run the scenario asked for:
	// the simulator would panic on a NaN time or silently run another.
	badDelay := math.IsNaN(d) || math.IsInf(d, 0) || d < 0
	var scen fela.Scenario
	switch stragKind {
	case "none":
		scen = nil
	case "rr":
		if badDelay {
			return fmt.Errorf("straggler delay -d %v is not a finite, non-negative number of seconds", d)
		}
		scen = fela.RoundRobinStraggler(d, fela.Testbed8().N)
	case "prob":
		if badDelay {
			return fmt.Errorf("straggler delay -d %v is not a finite, non-negative number of seconds", d)
		}
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("straggler probability -p %v is outside [0, 1]", p)
		}
		scen = fela.ProbabilityStraggler(p, d)
	default:
		return fmt.Errorf("unknown straggler scenario %q", stragKind)
	}

	var res fela.RunResult
	var reg *fela.Registry
	switch system {
	case "fela":
		var weights []int
		if weightsFlag != "" {
			for _, part := range strings.Split(weightsFlag, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("bad weights %q: %w", weightsFlag, err)
				}
				weights = append(weights, w)
			}
		}
		if metricsOut != "" {
			reg = obs.NewRegistry()
		}
		res, err = fela.Simulate(fela.SimConfig{
			Model: m, TotalBatch: batch, Iterations: iters,
			Weights: weights, SubsetSize: subset, Scenario: scen,
			Staleness: staleness, Metrics: reg,
		})
	case "dp", "mp", "hp":
		cfg := baseline.Config{Model: m, TotalBatch: batch, Iterations: iters, Scenario: scen}
		c := cluster.New(fela.Testbed8())
		switch system {
		case "dp":
			res, err = baseline.RunDP(c, cfg)
		case "mp":
			res, err = baseline.RunMP(c, cfg)
		case "hp":
			res, err = baseline.RunHP(c, cfg)
		}
	default:
		return fmt.Errorf("unknown system %q", system)
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
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
			fmt.Printf("token server metrics: %s\n", metricsOut)
		}
		if err := reg.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

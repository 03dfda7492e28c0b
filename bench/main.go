// Command bench is the repository's regression benchmark: six named
// workloads, end-to-end metrics measured with tracing off, and per-layer
// metrics from a layer pass and a traced run. See README.md.
//
//	bash bench/run.sh --workload train-comm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -out bench/out/set.json      # all six, in child processes
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what running one workload yields before it is rendered.
type outcome struct {
	values     map[string]float64
	samples    map[string]int // sample count behind a median or percentile
	perSession int            // iterations behind one session's percentiles
	attempted  int
	failed     int
	notes      []string
	budget     []string // printed lines: the traced token-life budget
	gates      []string // gates of the traced run that failed
}

// gateMarker opens a printed failure of one of the traced run's gates:
// the workload no longer stresses what it was built to stress, or tracing
// cost more than traceOverheadMax. The all-workloads mode looks for it in
// its children's output and fails. A single-workload run only prints it:
// that is the command later changes are judged by, and a change that
// makes compute faster moves the shares legitimately.
const gateMarker = "gate FAILED"

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) fail(n int, notes []string) {
	o.failed += n
	o.notes = append(o.notes, notes...)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process; empty runs all six in child processes")
		seed    = flag.Int64("seed", 1, "derives model-init, dataset and job-spec seeds")
		seconds = flag.Float64("seconds", baseSeconds, "run length the operation counts are sized for")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the layer pass and a traced run")
		scale   = flag.Float64("scale", 1.0, "multiplies every operation count")
		out     = flag.String("out", "", "all-workloads mode: write the set of runs to this file")
		compare = flag.Bool("compare", false, "compare two sets written with -out: bench -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		bounds, err := loadBounds(benchmarkPath)
		if err != nil {
			fatal(err)
		}
		ok, err := compareSets(os.Stdout, bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		if err := runSuite(*seed, *seconds, *scale, *out); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", ")))
		}
		if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("need -seconds > 0, -scale > 0, -trace 0 or 1"))
		}
		o, err := runWorkload(w, *seed, *scale**seconds/baseSeconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		res := render(os.Stdout, w, o, *trace == 1)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func runWorkload(w *workload, seed int64, scale float64, traced bool) (*outcome, error) {
	switch {
	case w.serve && traced:
		return serveTraced(w, seed, scale)
	case w.serve:
		return serveUntraced(w, seed, scale)
	case traced:
		return trainTraced(w, seed, scale)
	default:
		return trainUntraced(w, seed, scale)
	}
}

// render prints every metric of the run by name with its unit, then the
// notes, and builds the result line. Metrics that do not apply to the
// workload (a layer off its path) read 0.
func render(out io.Writer, w *workload, o *outcome, traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload %s (%s)\n", w.name, map[bool]string{false: "tracing off", true: "layer pass + traced run"}[traced])
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail(1, []string{fmt.Sprintf("metric %s is not finite", d.name)})
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		extra := ""
		if n, ok := o.samples[d.name]; ok {
			extra = fmt.Sprintf("  (n=%d)", n)
			if strings.HasPrefix(d.name, "iter_ms_") {
				extra = fmt.Sprintf("  (n=%d sessions x %d iterations)", n, o.perSession)
			}
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-8s%s\n", d.name, v, d.unit, extra)
	}
	for _, l := range o.budget {
		fmt.Fprintln(out, l)
	}
	for _, l := range o.gates {
		fmt.Fprintln(out, " ", gateMarker+":", l)
	}
	for _, n := range o.notes {
		fmt.Fprintln(out, "  FAILED:", n)
	}
	res.Failed = o.failed
	res.Correct = o.failed == 0
	return res
}

// timedSession is what the end-to-end metrics need from one session.
type timedSession struct {
	total time.Duration // set-up, run, teardown
	rate  float64       // tokens per second
	gaps  []float64     // iteration lengths in ms
}

// untraced is a --trace 0 run: up to setupReps set-ups, then the timed
// work cut into equally long sessions. A set-up is everything before the
// first timed operation: build the replicas and the dataset or start the
// serving stack, listen, dial, register, and a warm-up session as long as
// a timed one.
func (o *outcome) untraced(sessions int, session func() (timedSession, error)) error {
	var setups []float64
	for rep := 0; rep < min(setupReps, sessions); rep++ {
		s, err := session()
		if err != nil {
			return err
		}
		setups = append(setups, s.total.Seconds())
	}
	var timed []timedSession
	for seg := 0; seg < sessions; seg++ {
		s, err := session()
		if err != nil {
			return err
		}
		timed = append(timed, s)
	}
	o.endToEnd(setups, timed)
	return nil
}

func trainUntraced(w *workload, seed int64, scale float64) (*outcome, error) {
	o := newOutcome()
	iters, sessions := cut(w.iters, scale, 2, segments)
	ref, err := w.reference(seed, iters)
	if err != nil {
		return nil, err
	}
	var history []float64 // the first session's losses: every session must repeat them
	err = o.untraced(sessions, func() (timedSession, error) {
		r, err := runTrain(w, seed, iters, false)
		if err != nil {
			return timedSession{}, err
		}
		o.attempted += iters * w.tokensPerIter()
		o.fail(r.check(w, ref))
		if history == nil {
			history = r.res.Losses
		} else if !samePrefix(history, r.res.Losses) {
			o.fail(1, []string{"two sessions disagree on the loss history"})
		}
		return timedSession{r.total, r.tokensPerSec(w), r.iterGap}, nil
	})
	return o, err
}

func serveUntraced(w *workload, seed int64, scale float64) (*outcome, error) {
	o := newOutcome()
	in, err := newServeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	loops, sessions := cut(w.loops, scale, 2, segments)
	err = o.untraced(sessions, func() (timedSession, error) {
		r, err := runServe(in, loops, false, nil)
		if err != nil {
			return timedSession{}, err
		}
		o.attempted += 2 * r.jobs()
		o.fail(r.failed, r.notes)
		return timedSession{r.total, r.tokensPerSec(w), r.series(loopMS)}, nil
	})
	return o, err
}

// endToEnd fills in the end-to-end metrics. Each timed session yields
// its rate and the median and 90th percentile of its iterations; the run
// reports the median over all its sessions of the first two. Other
// tenants of the host slow some sessions of a run by a tenth to a third;
// the median over sessions sets those aside from either end without
// looking at which they are, and a change that slows most sessions still
// moves it. The 90th percentiles are averaged over the middle half of the
// sessions instead (midmean): where an iteration is a few tokens long, a
// worker that loses its core for one token makes the iteration 1.4 times
// as long, a session of three or four iterations has such an iteration or
// has none, and the median over sessions would jump between the two
// kinds of session whenever they are about equally many.
func (o *outcome) endToEnd(setups []float64, timed []timedSession) {
	var rate, p50, p90 []float64
	for _, s := range timed {
		rate = append(rate, s.rate)
		p50 = append(p50, median(s.gaps))
		p90 = append(p90, quantile(s.gaps, 0.9))
	}
	o.values["setup_s"] = median(setups)
	o.values["tokens_per_s"] = median(rate)
	o.values["iter_ms_p50"] = median(p50)
	o.values["iter_ms_p90"] = midmean(p90)
	o.values["peak_rss_mb"] = peakRSSMB()
	o.samples["setup_s"] = len(setups)
	o.samples["tokens_per_s"] = len(timed)
	o.samples["iter_ms_p50"], o.samples["iter_ms_p90"] = len(timed), len(timed)
	o.perSession = len(timed[0].gaps)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment records where a set of runs was made. -compare refuses
// sets whose seed, scale, seconds, nproc or GOMAXPROCS differ.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Timestamp  string  `json:"timestamp"`
}

// runSet is one full set: every workload, suiteReps untraced runs (seeds
// seed..seed+suiteReps-1) and one traced run (seed).
type runSet struct {
	Env       environment             `json:"environment"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"` // one value per untraced run
	PerLayer  map[string]float64   `json:"per_layer"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// benchmarkPath is BENCHMARK.json as seen from the root of the checkout,
// where the benchmark is run from.
const benchmarkPath = "BENCHMARK.json"

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// loadBounds reads, per end-to-end metric, how far it may worsen before a
// change counts as a regression. BENCHMARK.json is the only place the
// bounds are written down.
func loadBounds(path string) (map[string]float64, error) {
	f, err := loadBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range endToEnd {
		if !(bounds[d.name] > 0) {
			return nil, fmt.Errorf("%s: no bound for %s", path, d.name)
		}
	}
	return bounds, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload in its own child process of this binary,
// so each starts with fresh pools and its own resident-set high-water
// mark. It fails if any run is incorrect or a traced run fails a gate.
func runSuite(seed int64, seconds, scale float64, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := loadBounds(benchmarkPath)
	if err != nil {
		return err
	}
	set := &runSet{
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(), Seed: seed, Scale: scale, Seconds: seconds,
			Timestamp: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadSet{},
	}
	bad := 0
	child := func(w *workload, seed int64, trace int) (*result, error) {
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: no result line (%v): %s", w.name, runErr, stdout.String())
		}
		if trace == 1 || !res.Correct {
			// The traced run's table carries the budget; a failed run's, the reasons.
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		}
		if !res.Correct || strings.Contains(stdout.String(), gateMarker) {
			bad++
		}
		return &res, nil
	}
	for _, w := range workloads {
		ws := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		set.Workloads[w.name] = ws
		for rep := 0; rep < suiteReps; rep++ {
			res, err := child(w, seed+int64(rep), 0)
			if err != nil {
				return err
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for name, m := range res.Metrics {
				ws.EndToEnd[name] = append(ws.EndToEnd[name], m.Value)
			}
		}
		res, err := child(w, seed, 1)
		if err != nil {
			return err
		}
		ws.Attempted += res.Attempted
		ws.Failed += res.Failed
		for name, m := range res.Metrics {
			ws.PerLayer[name] = m.Value
		}
		fmt.Printf("%s: end-to-end over %d runs (median, quartile spread as a share of it)\n", w.name, suiteReps)
		for _, d := range endToEnd {
			med, spread := summarize(ws.EndToEnd[d.name])
			fmt.Printf("  %-16s %12.6g %-5s spread %5.2f %%  bound %4.1f %%\n", d.name, med, d.unit, 100*spread, 100*boundFor(bounds, d.name, w.name))
		}
	}
	if outPath != "" {
		body, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(body, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs incorrect or failing a gate", bad)
	}
	return nil
}

// summarize gives the median of xs and the distance between its first
// and third quartiles as a share of the median.
func summarize(xs []float64) (med, spread float64) {
	med = median(xs)
	if med == 0 || len(xs) < 2 {
		return med, 0
	}
	return med, (quantile(xs, 0.75) - quantile(xs, 0.25)) / abs64(med)
}

func loadSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints one row per (workload, end-to-end metric): both
// medians, B over A, the bound from BENCHMARK.json, and a verdict. "unresolved" means the
// runs of one side spread wider than the bound, so the pair cannot show
// whether the metric moved. It also requires the exact counts among the
// per-layer metrics to be identical. ok is false on any regression,
// differing count or failed operation.
func compareSets(out io.Writer, bounds map[string]float64, pathA, pathB string) (ok bool, err error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	ea, eb := a.Env, b.Env
	if ea.Seed != eb.Seed || ea.Scale != eb.Scale || ea.Seconds != eb.Seconds ||
		ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS {
		return false, fmt.Errorf("sets are not comparable: A %+v, B %+v", ea, eb)
	}
	ok = true
	fmt.Fprintf(out, "A %s @ %s\nB %s @ %s\n", pathA, ea.GitCommit, pathB, eb.GitCommit)
	fmt.Fprintf(out, "%-16s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from a set", w.name)
		}
		for _, d := range endToEnd {
			ma, sa := summarize(wa.EndToEnd[d.name])
			mb, sb := summarize(wb.EndToEnd[d.name])
			bound := boundFor(bounds, d.name, w.name)
			worse := mb/ma - 1 // how far B is worse than A, as a share of A
			if d.better == "higher" {
				worse = 1 - mb/ma
			}
			verdict := "ok"
			switch {
			case max(sa, sb) > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "regressed"
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-14s %12.6g %12.6g %9.4f %6.1f%%  %s\n", w.name, d.name, ma, mb, mb/ma, 100*bound, verdict)
		}
		for _, d := range perLayer {
			if d.exact && wa.PerLayer[d.name] != wb.PerLayer[d.name] {
				ok = false
				fmt.Fprintf(out, "%-16s %-14s count differs: %v vs %v\n", w.name, d.name, wa.PerLayer[d.name], wb.PerLayer[d.name])
			}
		}
		if wa.Failed+wb.Failed > 0 {
			ok = false
			fmt.Fprintf(out, "%-16s failed operations: A %d of %d, B %d of %d\n", w.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return ok, nil
}

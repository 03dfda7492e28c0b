// Command felabench regenerates every table and figure of the paper's
// evaluation on the simulated testbed. With no flags it runs the whole
// suite at the paper's scale (100 iterations per measurement, 5 warm-up
// iterations per tuning case); -quick reduces iteration counts for a
// fast pass.
//
// Usage:
//
//	felabench [-quick] [-experiment all|table1|...|extensions]
//	felabench -csvdir out/    # also write plotting-ready CSV series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fela/internal/experiments"
	"fela/internal/obs"
)

// experimentNames lists every value -experiment accepts, in the order
// they run under "all".
var experimentNames = []string{
	"all", "table1", "fig1", "table2", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "extensions",
}

func validExperiment(which string) bool {
	for _, n := range experimentNames {
		if which == n {
			return true
		}
	}
	return false
}

func main() {
	quick := flag.Bool("quick", false, "run with reduced iteration counts")
	which := flag.String("experiment", "all",
		"experiment to run ("+strings.Join(experimentNames, ", ")+")")
	csvDir := flag.String("csvdir", "", "also write each figure's data series as CSV files into this directory")
	flag.Parse()

	obs.FlightDumpOnSIGQUIT("felabench")

	ctx := experiments.Default()
	if *quick {
		ctx = experiments.Quick()
	}
	if err := run(ctx, *which, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "felabench:", err)
		os.Exit(1)
	}
}

// run prints the experiment which names (or all of them) and, when
// csvDir is not empty, writes each figure's data series there.
func run(ctx *experiments.Context, which, csvDir string) error {
	if !validExperiment(which) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", which, strings.Join(experimentNames, ", "))
	}
	all := which == "all"
	out := func(s string) { fmt.Println(s) }
	writeCSV := func(name, data string) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(csvDir, name), []byte(data), 0o644)
	}

	if all || which == "table1" {
		out(experiments.Table1().Render())
	}
	if all || which == "fig1" {
		r := experiments.Fig1(ctx)
		out(r.Render())
		if err := writeCSV("fig1.csv", r.CSV()); err != nil {
			return err
		}
	}
	if all || which == "table2" {
		t2 := experiments.Table2()
		if err := t2.CheckTable2(); err != nil {
			return err
		}
		out(t2.Render())
	}
	if all || which == "fig5" {
		for _, m := range experiments.BenchModels() {
			r := experiments.Fig5(ctx, m)
			out(r.Render())
			if err := writeCSV("fig5_"+m.Name+".csv", r.CSV()); err != nil {
				return err
			}
		}
	}
	if all || which == "fig6" {
		r, err := experiments.Fig6(ctx, experiments.BenchModels()[0])
		if err != nil {
			return err
		}
		out(r.Render())
		if err := writeCSV("fig6.csv", r.CSV()); err != nil {
			return err
		}
	}
	if all || which == "fig7" {
		r, err := experiments.Fig7(ctx, experiments.BenchModels()[0])
		if err != nil {
			return err
		}
		out(r.Render())
		if err := writeCSV("fig7.csv", r.CSV()); err != nil {
			return err
		}
	}
	if all || which == "fig8" {
		r, err := experiments.Fig8(ctx)
		if err != nil {
			return err
		}
		out(r.Render())
		if err := writeCSV("fig8.csv", r.CSV()); err != nil {
			return err
		}
	}
	if all || which == "fig9" {
		r, err := experiments.Fig9(ctx)
		if err != nil {
			return err
		}
		out(r.Render())
		if err := writeCSV("fig9.csv", r.CSV()); err != nil {
			return err
		}
	}
	if all || which == "fig10" {
		r, err := experiments.Fig10(ctx)
		if err != nil {
			return err
		}
		out(r.Render())
		if err := writeCSV("fig10.csv", r.CSV()); err != nil {
			return err
		}
	}
	if all || which == "extensions" {
		m := experiments.BenchModels()[0]
		sc, err := experiments.Scalability(ctx, m)
		if err != nil {
			return err
		}
		out(sc.Render())
		het, err := experiments.Heterogeneous(ctx, m, 0.6)
		if err != nil {
			return err
		}
		out(het.Render())
		ssp, err := experiments.SSP(ctx, m)
		if err != nil {
			return err
		}
		out(ssp.Render())
		cb, err := experiments.CommBreakdown(ctx, m)
		if err != nil {
			return err
		}
		out(cb.Render())
	}
	return nil
}

package experiments

import (
	"fmt"

	"fela/internal/metrics"
	"fela/internal/model"
)

// Table1Result reproduces Table I.
type Table1Result struct {
	Rows []model.TableIEntry
}

// Table1 returns the paper's Table I, cross-checked against the zoo
// models this repository actually implements.
func Table1() *Table1Result {
	return &Table1Result{Rows: model.TableI()}
}

// Render prints the table.
func (r *Table1Result) Render() string {
	t := metrics.Table{
		Title:   "Table I: Growing Neural Network Layer Numbers",
		Headers: []string{"Model", "Year", "Layer Number"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Model, fmt.Sprint(row.Year), fmt.Sprint(row.Layers))
	}
	return t.String()
}

// Table2Row is one system of Table II.
type Table2Row struct {
	Solution        string
	ParallelMode    string
	FlexParallelism bool
	StragglerMit    bool
	CommEfficiency  bool
	WorkConserv     bool
	Reproducibility bool
	Note            string
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 returns the paper's qualitative comparison of representative
// DML solutions (Table II).
func Table2() *Table2Result {
	return &Table2Result{Rows: []Table2Row{
		{"LazyTable", "Model-Parallel", false, true, true, true, false, ""},
		{"FlexRR", "Data-Parallel", false, true, false, true, false, "migration cost"},
		{"FlexPS", "Data-Parallel", true, false, false, true, true, "PS bottleneck"},
		{"PipeDream", "Model-Parallel", false, false, true, false, false, ""},
		{"ElasticPipe", "Model-Parallel", false, true, true, false, true, ""},
		{"Stanza", "Hybrid-Parallel", false, true, true, false, true, ""},
		{"Fela", "Hybrid-Parallel", true, true, true, true, true, "this work"},
	}}
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Render prints the comparison matrix.
func (r *Table2Result) Render() string {
	t := metrics.Table{
		Title: "Table II: Comparison of Representative DML Solutions",
		Headers: []string{"Solution", "Parallel Mode", "FlexPar", "StragMit",
			"CommEff", "WorkCons", "Reprod", "Note"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Solution, row.ParallelMode, mark(row.FlexParallelism),
			mark(row.StragglerMit), mark(row.CommEfficiency),
			mark(row.WorkConserv), mark(row.Reproducibility), row.Note)
	}
	return t.String()
}

// CheckTable2 verifies the structural claims the paper draws from the
// table: only Fela covers all five dimensions.
func (r *Table2Result) CheckTable2() error {
	full := 0
	for _, row := range r.Rows {
		if row.FlexParallelism && row.StragglerMit && row.CommEfficiency &&
			row.WorkConserv && row.Reproducibility {
			full++
			if row.Solution != "Fela" {
				return fmt.Errorf("table2: %s unexpectedly covers all dimensions", row.Solution)
			}
		}
	}
	if full != 1 {
		return fmt.Errorf("table2: %d solutions cover all dimensions, want exactly Fela", full)
	}
	return nil
}

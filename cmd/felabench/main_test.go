package main

import (
	"os"
	"path/filepath"
	"testing"

	"fela/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	ctx := experiments.Quick()
	for _, which := range []string{"table1", "table2", "fig1", "fig5"} {
		if err := run(ctx, which, ""); err != nil {
			t.Errorf("%s: %v", which, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(experiments.Quick(), "fig99", ""); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	ctx := experiments.Quick()
	if err := run(ctx, "fig8", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
	if string(data[:5]) != "model" {
		t.Errorf("CSV header wrong: %q", data[:20])
	}
}

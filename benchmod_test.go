package fela

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleBuilds keeps the regression benchmark compiling. bench/
// is a module of its own (BENCHMARK.json's contract wants it to have its
// own build file), so `go build ./... && go test ./...` here never
// reaches it, yet it calls straight into internal/{tensor,minidnn,
// transport,rt,jobs,gate,obs}: an API change there that breaks the
// harness must fail tier-1, not the next benchmark run. The binary goes
// to a temporary directory; nothing is written inside the checkout.
// `make benchmod` also runs the harness's own tests.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	for _, args := range [][]string{
		{"build", "-C", "bench", "-buildvcs=false", "-o", t.TempDir(), "."},
		{"vet", "-C", "bench", "./..."},
	} {
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

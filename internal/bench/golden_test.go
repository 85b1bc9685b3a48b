package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

// quickFigures renders the CI-sized sweep of every figure to one string.
func quickFigures() string {
	var sb strings.Builder
	for _, f := range []Figure{
		Fig11LatencyAlternatives([]int{4, 1024}),
		Fig12CreditSweep([]int{1, 32}),
		Fig13Latency([]int{4, 1024}),
		Fig13Bandwidth([]int{64 << 10}),
	} {
		f.Fprint(&sb)
	}
	return sb.String()
}

// TestGoldenFigures pins the calibrated micro-benchmark numbers exactly:
// the simulation is deterministic, so any model change that moves a
// figure — intentionally or not — fails here. Recalibrations rerun with
// `go test ./internal/bench -run TestGoldenFigures -update`.
func TestGoldenFigures(t *testing.T) {
	checkGolden(t, "figures.golden", quickFigures())
}

// checkGolden compares got with testdata/<name> byte-for-byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s diverged (rerun with -update if the change is intentional)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

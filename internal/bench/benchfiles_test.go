package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenBenchFiles regenerates the committed BENCH_metrics.json
// (`make metrics`) and BENCH_corescale.json (`make corescale`) in-process
// and requires the committed files to match byte for byte, so a change
// that moves either record must also commit its regeneration.
// BENCH_connscale.json is left out: its full sweep takes about 45 s;
// compare it by hand (`go run ./cmd/reproduce -connscale`) when the
// poller or the demux changes.
func TestGoldenBenchFiles(t *testing.T) {
	for _, tc := range []struct {
		file string
		gen  func() any
	}{
		{"BENCH_metrics.json", func() any { return RunMetrics(false) }},
		{"BENCH_corescale.json", func() any {
			return CoreScaleSweep(DefaultCoreScaleCores(), DefaultCoreScaleWorkers())
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			got, err := RecordJSON(tc.gen())
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s differs from its regeneration at %s; regenerate it with cmd/reproduce",
					tc.file, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff locates the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d (got %d lines, want %d)", min(len(g), len(w))+1, len(g), len(w))
}

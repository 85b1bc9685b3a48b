package bench

import (
	gobytes "bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// pingPongRegistry runs the deterministic latency pingpong on the given
// transport and returns the cluster-wide aggregated registry.
func pingPongRegistry(tr cluster.Transport) *telemetry.Registry {
	c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 1})
	sockPingPong(c, 64, latencyIters)
	return c.TelemetryAggregate()
}

// TestGoldenCounters pins the telemetry counter values of the
// deterministic pingpong on both transports byte-for-byte. A drift here
// means either the protocol model changed (rerun with -update and
// explain the diff) or instrumentation was accidentally made
// workload-visible.
func TestGoldenCounters(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct {
		name string
		tr   cluster.Transport
	}{
		{"substrate", cluster.TransportSubstrate},
		{"tcp", cluster.TransportTCP},
	} {
		snap := pingPongRegistry(tc.tr).Snapshot()
		for _, c := range snap.Counters {
			fmt.Fprintf(&sb, "%s %s/%s %d\n", tc.name, c.Layer, c.Metric, c.Value)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
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
		t.Fatalf("telemetry counters diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSnapshotDeterminism runs the same seeded workload twice per
// transport and requires the full JSON snapshot — counters, gauges, and
// every histogram bucket — to come out byte-identical.
func TestSnapshotDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   cluster.Transport
	}{
		{"substrate", cluster.TransportSubstrate},
		{"tcp", cluster.TransportTCP},
	} {
		var runs [2]gobytes.Buffer
		for i := range runs {
			if err := pingPongRegistry(tc.tr).Snapshot().WriteJSON(&runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if runs[0].Len() == 0 {
			t.Fatalf("%s: empty snapshot", tc.name)
		}
		if !gobytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
			t.Errorf("%s: same seed produced different snapshots", tc.name)
		}
	}
}

// TestMetricsDecomposition regression-checks the -metrics deliverable:
// every path decomposes, the per-stage sums reconstruct the end-to-end
// latency (the telescoping invariant), and all three protocol paths
// appear.
func TestMetricsDecomposition(t *testing.T) {
	rep := RunMetrics(true)
	if err := VerifyDecomposition(rep); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, d := range rep.Decomp {
		paths[d.Path] = true
	}
	for _, want := range []string{"eager", "rend", "tcp"} {
		if !paths[want] {
			t.Errorf("decomposition missing path %q (have %v)", want, paths)
		}
	}
	if rep.Snapshot == nil || len(rep.Snapshot.Hists) == 0 {
		t.Error("merged snapshot carries no histograms")
	}
}

// TestChaosFlightDump requires the seeded crash scenario to leave a
// flight-recorder dump for the reset connection — the artifact the
// chaos report prints for post-mortems.
func TestChaosFlightDump(t *testing.T) {
	r := linkChaos.run(linkCrash, "crash", 1, linkChaos.full, nil)
	if !r.OK {
		t.Fatalf("crash scenario failed: %s", r.Detail)
	}
	var reset *telemetry.Dump
	for i, d := range r.FlightDumps {
		if d.Reason == "reset" {
			reset = &r.FlightDumps[i]
		}
	}
	if reset == nil {
		t.Fatalf("no reset flight dump (have %d dumps)", len(r.FlightDumps))
	}
	var sawFail bool
	for _, e := range reset.Events {
		if e.Kind == "fail" {
			sawFail = true
		}
	}
	if !sawFail {
		t.Errorf("reset dump for %s lacks the fail event: %+v", reset.Conn, reset.Events)
	}
}

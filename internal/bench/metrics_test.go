package bench

import (
	gobytes "bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// pingPongRegistry runs the deterministic latency pingpong on the given
// transport and returns the cluster-wide aggregated registry.
func pingPongRegistry(tr cluster.Transport) *telemetry.Registry {
	c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 1})
	sockPingPong(c, 64, latencyIters)
	return c.TelemetryAggregate()
}

// failoverRegistry runs a short kvstore over sessions on a Failover
// cluster whose node 0 (the server) is crash-restarted once, and
// returns the cluster-wide aggregated registry: the one golden input
// that builds both transports on every node and re-registers a reborn
// incarnation's layers.
func failoverRegistry(t *testing.T) *telemetry.Registry {
	pl := &faults.Plan{Restarts: []faults.Restart{
		{Node: 0, At: 12 * sim.Millisecond, Downtime: 30 * sim.Millisecond}}}
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 1, Faults: pl})
	cfg := apps.DefaultKVConfig(64)
	cfg.Clients, cfg.OpsPerClient = 1, 8
	cfg.Sessions = true
	cfg.Think = 8 * sim.Millisecond
	if res := apps.RunKVStore(c, cfg); res.Err != nil {
		t.Fatalf("failover kvstore: %v", res.Err)
	}
	if inc := c.Nodes[0].Incarnation; inc != 2 {
		t.Fatalf("node 0 at incarnation %d, want 2", inc)
	}
	return c.TelemetryAggregate()
}

// TestGoldenCounters pins the telemetry counter values of the
// deterministic pingpong on both transports, and of one crash-restarted
// Failover run, byte-for-byte. A drift here means either the protocol
// model changed (rerun with -update and explain the diff) or
// instrumentation was accidentally made workload-visible.
func TestGoldenCounters(t *testing.T) {
	var sb strings.Builder
	emit := func(name string, snap *telemetry.Snapshot) {
		for _, c := range snap.Counters {
			fmt.Fprintf(&sb, "%s %s/%s %d\n", name, c.Layer, c.Metric, c.Value)
		}
	}
	for _, tc := range []struct {
		name string
		tr   cluster.Transport
	}{
		{"substrate", cluster.TransportSubstrate},
		{"tcp", cluster.TransportTCP},
	} {
		emit(tc.name, pingPongRegistry(tc.tr).Snapshot())
	}
	emit("failover", failoverRegistry(t).Snapshot())
	checkGolden(t, "counters.golden", sb.String())
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
		var runs [2][]byte
		for i := range runs {
			blob, err := json.Marshal(pingPongRegistry(tc.tr).Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = blob
		}
		if len(runs[0]) == 0 {
			t.Fatalf("%s: empty snapshot", tc.name)
		}
		if !gobytes.Equal(runs[0], runs[1]) {
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

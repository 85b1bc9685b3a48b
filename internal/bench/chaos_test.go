package bench

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestChaosQuick runs every domain's matrix at its smoke setting (the
// `-chaos all -quick` leg of `make verify`): the link plans and the
// crash scenario, every NIC fault kind, one trunk kill and one spine
// kill, the server and one client of each workload rebooted, each on
// both session workloads plus the domain's control.
//
// The concatenated reports of every domain are pinned byte-for-byte in
// testdata/chaos.golden (rerun with -update after intentional model
// changes); the comparison runs only when every domain's subtest did.
func TestChaosQuick(t *testing.T) {
	var all strings.Builder
	rendered := 0
	for _, name := range ChaosDomains {
		t.Run(name, func(t *testing.T) {
			rep, err := Chaos(name, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Runs {
				if !r.OK {
					t.Errorf("%s/%s seed %d: %s", r.Workload, r.Point, r.Seed, r.Detail)
				}
			}
			var w io.Writer = &all
			if testing.Verbose() || t.Failed() {
				w = io.MultiWriter(&all, os.Stdout)
			}
			FprintChaos(w, rep)
			rendered++
		})
	}
	if rendered == len(ChaosDomains) {
		checkGolden(t, "chaos.golden", all.String())
	}
	t.Run("unknown", func(t *testing.T) {
		if _, err := Chaos("disk", 1, true); err == nil {
			t.Error("unknown domain accepted")
		}
	})
}

// runReport renders a finished run: every counter of the cluster
// snapshot, one "layer/metric value" line each, then the processes
// still blocked at the end.
func runReport(c *cluster.Cluster) string {
	var b strings.Builder
	for _, m := range c.TelemetrySnapshot().Counters {
		fmt.Fprintf(&b, "%s/%s %d\n", m.Layer, m.Metric, m.Value)
	}
	if blocked := c.Eng.BlockedProcs(); len(blocked) > 0 {
		fmt.Fprintf(&b, "blocked processes (%d):\n", len(blocked))
		for _, s := range blocked {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	return b.String()
}

// webRunReport runs the web workload over sessions on a fresh Failover
// cluster (spine-leaf when topo is set) under the given fault plan and
// returns its run report. Every call builds its own
// engine and cluster, so two calls with the same seed share no state —
// only the seed.
func webRunReport(t *testing.T, seed uint64, pl *faults.Plan, topo *cluster.Topology) string {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 4, Failover: true, Seed: seed, Faults: pl, Topology: topo})
	cfg := apps.DefaultWebConfig(1024, 8)
	cfg.RequestsPerClient = 12
	cfg.Sessions = true
	cfg.Think = 8 * sim.Millisecond
	res := apps.RunWeb(c, cfg)
	if res.Err != nil {
		t.Fatalf("seed %d: web workload failed: %v", seed, res.Err)
	}
	if want := cfg.Clients * cfg.RequestsPerClient; res.Requests != want {
		t.Fatalf("seed %d: %d of %d requests", seed, res.Requests, want)
	}
	return runReport(c)
}

// fabricRunReport is webRunReport on a 2x2 spine-leaf fabric.
func fabricRunReport(t *testing.T, seed uint64, pl *faults.Plan) string {
	t.Helper()
	return webRunReport(t, seed, pl, &cluster.Topology{Leaves: 2, Spines: 2})
}

// TestFabricReportDeterministic is the end-to-end determinism
// guarantee for the fabric: the same seed and topology must hash every
// flow onto the same paths and produce a byte-identical run report —
// per-switch forward counts, per-trunk carry counts, everything —
// across two fully independent runs. ECMP path stability at the frame
// level is covered by ethernet's TestECMPDeterministicAcrossRuns; this
// pins the whole-stack consequence.
func TestFabricReportDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		a := fabricRunReport(t, seed, nil)
		b := fabricRunReport(t, seed, nil)
		if a != b {
			t.Errorf("seed %d: reports differ across identical runs\n--- first ---\n%s\n--- second ---\n%s", seed, a, b)
		}
	}
	// Distinct seeds must actually steer ECMP differently somewhere —
	// otherwise the check above is vacuous.
	if fabricRunReport(t, 1, nil) == fabricRunReport(t, 2, nil) {
		t.Log("note: seeds 1 and 2 produced identical reports (hash collision across all flows)")
	}
}

// TestFabricReportDeterministicUnderFaults repeats the byte-identity
// check with a mid-run trunk kill in the plan: detection, reroute, and
// the retransmission storm it causes must all replay exactly.
func TestFabricReportDeterministicUnderFaults(t *testing.T) {
	seed := uint64(3)
	pl := &faults.Plan{Links: []faults.LinkClause{
		faults.LinkDown(0, fabricKillAt(seed), 0),
	}}
	a := fabricRunReport(t, seed, pl)
	b := fabricRunReport(t, seed, pl)
	if a != b {
		t.Errorf("reports differ across identical faulted runs\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestRestartReportDeterministic pins end-to-end determinism across a
// mid-run server reboot: crash detection, the reconnect storm during
// the downtime window, listener resurrection, offset resume against
// the reborn incarnation, and replay must all replay exactly, down to
// a byte-identical run report, across two fully independent runs.
func TestRestartReportDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 4} {
		pl := restartPlan(seed, 0)
		a := webRunReport(t, seed, pl, nil)
		b := webRunReport(t, seed, pl, nil)
		if a != b {
			t.Errorf("seed %d: reports differ across identical restart runs\n--- first ---\n%s\n--- second ---\n%s", seed, a, b)
		}
	}
}

// TestRestartFreePlanReportUnchanged is the zero-cost-off guarantee: a
// fault plan with no Restart clause must produce a run byte-identical
// to one with no plan at all — no boot-epoch skew in message IDs, no
// restart bookkeeping in the report, nothing.
func TestRestartFreePlanReportUnchanged(t *testing.T) {
	seed := uint64(2)
	a := webRunReport(t, seed, nil, nil)
	b := webRunReport(t, seed, &faults.Plan{}, nil)
	if a != b {
		t.Errorf("empty fault plan changed the report\n--- nil plan ---\n%s\n--- empty plan ---\n%s", a, b)
	}
}

// TestChaosInjectedCountsTheWorkload replays the nic domain's mixed web
// run at full scale, seed 2, whose fault plan drops the doorbell of the
// audit's stale-entry purge: the injected column must equal the NIC
// fault counters as the workload left them, not count that purge.
func TestChaosInjectedCountsTheWorkload(t *testing.T) {
	d := nicChaos
	pt := chaosPoint{name: "mixed"}
	const seed = 2
	nodes := chaosNodes["web"]
	cfg := d.cluster
	cfg.Nodes, cfg.Seed = nodes, seed
	cfg.Faults = d.plan(pt, "web", seed, nodes)
	c := cluster.New(cfg)
	r := chaosRun{Workload: "web", Point: pt.name, Seed: seed}
	r.OK, r.Detail = d.web(c, d.full, nil)
	var want int64
	for _, n := range c.Nodes {
		nc := n.Sub.EP.NIC
		want += nc.DoorbellsDropped.Value + nc.DMAStalls.Value + nc.DescFlips.Value +
			nc.UQLost.Value + nc.WedgeStalls.Value
	}
	d.fold(c, pt, &r)
	if !r.OK {
		t.Fatalf("run failed: %s", r.Detail)
	}
	for i, col := range d.cols {
		if col.header == "injected" && r.Counters[i] != want {
			t.Fatalf("injected column %d, want the workload's %d NIC faults", r.Counters[i], want)
		}
	}
}

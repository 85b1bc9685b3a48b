package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

// faultGoldenPlan is a seeded frame-fault plan: every fault kind at 2%
// on every link, plus one partition window between the two nodes.
func faultGoldenPlan() *faults.Plan {
	pl := &faults.Plan{Clauses: []faults.Clause{faults.Uniform(0.02, 0.02, 0.02, 0.02)}}
	pl.Clauses = append(pl.Clauses,
		faults.Clause{From: 2 * sim.Millisecond, Until: 4 * sim.Millisecond, Src: 0, Dst: 1, Partition: true},
		faults.Clause{From: 2 * sim.Millisecond, Until: 4 * sim.Millisecond, Src: 1, Dst: 0, Partition: true})
	return pl
}

// echoRounds has node 1 send rounds size-byte messages to node 0 and
// read each echo back. It reports how many rounds completed.
func echoRounds(c *Cluster, rounds, size int) int {
	done := 0
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 7, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < rounds; i++ {
			if _, _, err := sock.ReadFull(p, conn, size); err != nil {
				return
			}
			if _, err := conn.Write(p, size, nil); err != nil {
				return
			}
		}
		conn.Close(p)
		l.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 7)
		if err != nil {
			return
		}
		for i := 0; i < rounds; i++ {
			if _, err := conn.Write(p, size, nil); err != nil {
				return
			}
			if _, _, err := sock.ReadFull(p, conn, size); err != nil {
				return
			}
			done++
		}
		conn.Close(p)
	})
	c.Run(10 * sim.Second)
	return done
}

// TestGoldenFaultReport pins the run report (every telemetry counter
// and the blocked processes) of a 2-node echo on both transports under a seeded
// frame-fault plan on the single switch, then the fabric and switch rows
// of the same echo on a 2x2 spine-leaf fabric that loses a trunk. A
// drift means the switch's fault path (draw order, counters, delivery
// timing) or the fabric's routing and counters changed.
func TestGoldenFaultReport(t *testing.T) {
	const rounds, size = 200, 1024
	var sb strings.Builder
	for _, tr := range []Transport{TransportSubstrate, TransportTCP} {
		c := New(Config{Nodes: 2, Transport: tr, Seed: 11, Faults: faultGoldenPlan()})
		if got := echoRounds(c, rounds, size); got != rounds {
			t.Fatalf("%v: %d of %d echo rounds completed", tr, got, rounds)
		}
		snap := c.TelemetrySnapshot()
		if part := snap.Sum("switch/fault_partition_drops"); part == 0 || snap.Sum(FaultKeys...) == part {
			t.Fatalf("%v: plan injected too little to pin anything: %s", tr, FaultText(snap.Sum))
		}
		fmt.Fprintf(&sb, "== %v\n%s", tr, runReport(c))
	}
	sb.WriteString(fabricFaultSection(t, rounds, size))
	got := sb.String()
	path := filepath.Join("testdata", "faults.golden")
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
		t.Fatalf("fault report diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// fabricFaultSection runs the golden echo over the substrate on a 2x2
// spine-leaf fabric under the same frame-fault plan, with trunk 0
// (leaf0-spine0) killed for good at 1 ms, and renders the snapshot's
// fabric and switch rows.
func fabricFaultSection(t *testing.T, rounds, size int) string {
	pl := faultGoldenPlan()
	pl.Links = []faults.LinkClause{faults.LinkDown(0, 1*sim.Millisecond, 0)}
	c := New(Config{Nodes: 2, Transport: TransportSubstrate, Seed: 11, Faults: pl,
		Topology: &Topology{Leaves: 2, Spines: 2}})
	if got := echoRounds(c, rounds, size); got != rounds {
		t.Fatalf("fabric: %d of %d echo rounds completed", got, rounds)
	}
	snap := c.TelemetrySnapshot()
	if snap.Sum("fabric/link_downs") != 1 || snap.Sum("fabric/trunk0_drops") == 0 {
		t.Fatalf("fabric: the trunk kill pinned nothing:\n%s", runReport(c))
	}
	var b strings.Builder
	b.WriteString("== fabric 2x2, trunk0 down at 1ms\n")
	for _, m := range snap.Counters {
		if m.Layer == "fabric" || m.Layer == "switch" {
			fmt.Fprintf(&b, "%s/%s %d\n", m.Layer, m.Metric, m.Value)
		}
	}
	return b.String()
}

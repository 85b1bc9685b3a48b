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
	pl.Clauses = append(pl.Clauses, faults.LinkPartition(0, 1, 2*sim.Millisecond, 4*sim.Millisecond)...)
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

// TestGoldenFaultReport pins the cluster report and the telemetry
// counters of a 2-node echo on both transports under a seeded
// frame-fault plan on the single switch. A drift means the switch's
// fault path (draw order, counters, delivery timing) changed.
func TestGoldenFaultReport(t *testing.T) {
	const rounds, size = 200, 1024
	var sb strings.Builder
	for _, tr := range []Transport{TransportSubstrate, TransportTCP} {
		c := New(Config{Nodes: 2, Transport: tr, Seed: 11, Faults: faultGoldenPlan()})
		if got := echoRounds(c, rounds, size); got != rounds {
			t.Fatalf("%v: %d of %d echo rounds completed", tr, got, rounds)
		}
		if fs := c.Switch.FaultStats(); fs.PartitionDrops == 0 || fs.Total() == fs.PartitionDrops {
			t.Fatalf("%v: plan injected too little to pin anything: %v", tr, fs)
		}
		fmt.Fprintf(&sb, "== %v\n%s", tr, c.Report())
		for _, ct := range c.TelemetrySnapshot().Counters {
			fmt.Fprintf(&sb, "%s/%s %d\n", ct.Layer, ct.Metric, ct.Value)
		}
	}
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

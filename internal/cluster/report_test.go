package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emp"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/ramfs"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcpip"
)

// runReport renders a finished run: every counter of the cluster
// snapshot, one "layer/metric value" line each, then the processes
// still blocked at the end.
func runReport(c *Cluster) string {
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

// layers lists the layers a cluster's snapshot has rows for.
func layers(c *Cluster) map[string]bool {
	out := map[string]bool{}
	for _, m := range c.TelemetrySnapshot().Counters {
		out[m.Layer] = true
	}
	return out
}

func TestReportCoversBothTransports(t *testing.T) {
	sub := NewSubstrate(2, nil)
	echoQuiet(sub)
	got := layers(sub)
	for _, want := range []string{"core", "emp", "nic", "kernel", "fs", "switch", "sim"} {
		if !got[want] {
			t.Fatalf("substrate report has no %s rows:\n%s", want, runReport(sub))
		}
	}
	if got["tcp"] {
		t.Fatal("substrate report has tcp rows")
	}

	tcp := NewTCP(2)
	echoQuiet(tcp)
	got = layers(tcp)
	for _, want := range []string{"tcp", "kernel", "fs", "switch", "sim"} {
		if !got[want] {
			t.Fatalf("tcp report has no %s rows:\n%s", want, runReport(tcp))
		}
	}
	for _, bypass := range []string{"emp", "core", "nic"} {
		if got[bypass] {
			t.Fatalf("tcp report has %s rows", bypass)
		}
	}
}

// TestReportCoversFabric checks that a spine-leaf cluster's snapshot
// carries the fabric's per-switch and per-trunk rows, and that the
// per-switch forwards add up to the fabric total.
func TestReportCoversFabric(t *testing.T) {
	c := New(Config{Nodes: 2, Transport: TransportTCP, Topology: &Topology{Leaves: 2, Spines: 1}})
	echoQuiet(c)
	snap := c.TelemetrySnapshot()
	total := snap.Sum("fabric/forwards")
	sum := snap.Sum("fabric/leaf0_forwards", "fabric/leaf1_forwards", "fabric/spine0_forwards")
	if total == 0 || sum != total {
		t.Fatalf("per-switch forwards sum to %d, fabric total %d:\n%s", sum, total, runReport(c))
	}
	rep := runReport(c)
	for _, row := range []string{"fabric/spine0_no_route ", "fabric/trunk1_forwards ", "fabric/trunk1_drops "} {
		if !strings.Contains(rep, "\n"+row) {
			t.Fatalf("fabric report has no %q row:\n%s", row, rep)
		}
	}
}

// TestEveryCounterTagged requires every sim.Counter field of the
// per-node layers to carry a metric tag, so each counter reaches the
// snapshot, the one place reports read. The four NIC data-path counters
// are the exception: benchmark/harness.go adds them to its counter map
// by hand, so tagging them would count them twice. They join the
// registry together with the removal of those harness lines (ROADMAP
// item 1), and this test then loses its exception list.
func TestEveryCounterTagged(t *testing.T) {
	untagged := map[string]bool{
		"nic.NIC.TxFrames": true, "nic.NIC.DMABytes": true,
		"nic.NIC.TagWalked": true, "nic.NIC.TagLookups": true,
	}
	counter := reflect.TypeOf(sim.Counter{})
	for _, v := range []any{core.Substrate{}, emp.Counters{}, tcpip.Stack{}, kernel.Host{}, ramfs.FS{}, nic.NIC{}} {
		rt := reflect.TypeOf(v)
		seen := 0
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.Type != counter {
				continue
			}
			seen++
			name := rt.String() + "." + f.Name
			_, tagged := f.Tag.Lookup("metric")
			switch {
			case untagged[name] && tagged:
				t.Errorf("%s is tagged: drop the harness's hand-added copy in the same change (ROADMAP item 1)", name)
			case !untagged[name] && !tagged:
				t.Errorf("%s has no metric tag, so no snapshot shows it", name)
			}
		}
		if seen == 0 {
			t.Errorf("%s has no sim.Counter field: the check is vacuous", rt)
		}
	}
}

func TestReportReflectsTraffic(t *testing.T) {
	c := NewTCP(2)
	echoQuiet(c)
	// Traffic flowed, so segment and kernel counters must be nonzero and
	// switch forwarding recorded.
	snap := c.TelemetrySnapshot()
	for _, key := range []string{"tcp/segs_in", "tcp/segs_out", "kernel/syscalls", "kernel/interrupts", "switch/forwards"} {
		if snap.Sum(key) == 0 {
			t.Fatalf("%s is 0 after an echo:\n%s", key, runReport(c))
		}
	}
}

// echoQuiet runs a small exchange to populate counters.
func echoQuiet(c *Cluster) {
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 7, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		sock.ReadFull(p, conn, 64)
		conn.Write(p, 64, nil)
		conn.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 7)
		if err != nil {
			return
		}
		conn.Write(p, 64, nil)
		sock.ReadFull(p, conn, 64)
		conn.Close(p)
	})
	c.Run(10 * sim.Second)
}

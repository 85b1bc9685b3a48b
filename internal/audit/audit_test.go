package audit

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/emp"
	"repro/internal/sim"
)

// TestCleanAfterWorkload: a full application run that closes its sockets
// must audit clean on every node, both transports.
func TestCleanAfterWorkload(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 11})
		if res := apps.RunFTP(c, 256<<10); res.Err != nil {
			t.Fatalf("transport %v: ftp: %v", tr, res.Err)
		}
		for _, n := range c.Nodes {
			if n.Sub != nil {
				n.Sub.PurgeStale()
			}
		}
		rep := Cluster(c)
		if !rep.Clean() {
			t.Fatalf("transport %v: %s", tr, rep)
		}
		if rep.String() != "audit: clean" {
			t.Fatalf("clean report renders %q", rep.String())
		}
	}
}

// TestDetectsOrphanedDescriptor: a descriptor posted outside any
// socket's ownership and never unposted is exactly the leak the auditor
// exists to catch.
func TestDetectsOrphanedDescriptor(t *testing.T) {
	c := cluster.NewSubstrate(2, nil)
	c.Eng.Spawn("leaker", func(p *sim.Proc) {
		c.Nodes[0].Sub.EP.PostRecv(p, emp.AnySource, emp.Tag(0x2F00), 64, 700)
	})
	c.Run(sim.Second)
	rep := Cluster(c)
	if rep.Clean() {
		t.Fatal("auditor missed an orphaned descriptor")
	}
	orphans := 0
	for _, f := range rep.Findings {
		if f.Kind == "orphan-descriptor" {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatalf("findings lack orphan-descriptor kind: %s", rep)
	}
	if !strings.Contains(rep.String(), "node 0") {
		t.Fatalf("finding not attributed to node 0: %s", rep)
	}
	// Node 1 must stay clean: findings are per-node.
	for _, f := range rep.Findings {
		if f.Node != 0 {
			t.Fatalf("spurious finding on node %d: %s", f.Node, f)
		}
	}
}

// TestSurvivesKilledNode: auditing a cluster with a crashed node must
// not panic and must not blame the dead node for descriptors its crash
// abandoned (crash cleanup is the fault framework's job, audited only
// through the gauges it promises to zero).
func TestSurvivesKilledNode(t *testing.T) {
	c := cluster.NewSubstrate(3, nil)
	c.Eng.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c.Kill(1)
	})
	c.Run(sim.Second)
	for _, n := range c.Nodes {
		if n.Sub != nil && !n.Sub.Dead() {
			n.Sub.PurgeStale()
		}
	}
	if rep := Cluster(c); !rep.Clean() {
		t.Fatalf("idle cluster with one crash audits dirty: %s", rep)
	}
}

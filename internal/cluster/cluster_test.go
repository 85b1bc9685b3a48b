package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

func TestTransportsInstantiateCorrectly(t *testing.T) {
	tcp := NewTCP(2)
	if tcp.Nodes[0].Stack == nil || tcp.Nodes[0].Sub != nil {
		t.Fatal("TCP cluster wired wrong")
	}
	sub := NewSubstrate(2, nil)
	if sub.Nodes[0].Sub == nil || sub.Nodes[0].Stack != nil {
		t.Fatal("substrate cluster wired wrong")
	}
	if sub.Nodes[0].FD == nil || sub.Nodes[0].FS == nil {
		t.Fatal("fd space / fs missing")
	}
}

func TestAddressesAreDistinct(t *testing.T) {
	c := NewTCP(4)
	seen := map[sock.Addr]bool{}
	for i := range c.Nodes {
		a := c.Addr(i)
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
	}
}

// echo runs a connect/echo/close exchange over the cluster's transport.
func echo(t *testing.T, c *Cluster) sim.Duration {
	t.Helper()
	var rtt sim.Duration
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 7, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if _, _, err := sock.ReadFull(p, conn, 64); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		conn.Write(p, 64, nil)
		conn.Close(p)
		l.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 7)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		start := p.Now()
		conn.Write(p, 64, nil)
		sock.ReadFull(p, conn, 64)
		rtt = p.Now().Sub(start)
		conn.Close(p)
	})
	c.Run(10 * sim.Second)
	return rtt
}

func TestEchoOverEveryTransport(t *testing.T) {
	dg := core.DatagramOptions()
	for _, tc := range []struct {
		name  string
		build func() *Cluster
	}{
		{"tcp", func() *Cluster { return NewTCP(2) }},
		{"tcp-big", func() *Cluster { return NewTCPBig(2) }},
		{"substrate-ds", func() *Cluster { return NewSubstrate(2, nil) }},
		{"substrate-dg", func() *Cluster { return NewSubstrate(2, &dg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if rtt := echo(t, tc.build()); rtt <= 0 {
				t.Fatal("echo did not complete")
			}
		})
	}
}

func TestSubstrateEchoFasterThanTCP(t *testing.T) {
	tcp := echo(t, NewTCP(2))
	ds := echo(t, NewSubstrate(2, nil))
	if ds >= tcp {
		t.Fatalf("substrate echo %v should beat TCP %v", ds, tcp)
	}
}

func TestConfigDefaultsClamp(t *testing.T) {
	c := New(Config{Nodes: 0, Transport: TransportTCP})
	if len(c.Nodes) != 1 {
		t.Fatalf("nodes = %d, want clamped to 1", len(c.Nodes))
	}
	if c.Nodes[0].Host.CPU().N() != 4 {
		t.Fatalf("cores = %d, want default 4", c.Nodes[0].Host.CPU().N())
	}
}

func TestSeedPropagates(t *testing.T) {
	a := New(Config{Nodes: 1, Transport: TransportTCP, Seed: 7})
	b := New(Config{Nodes: 1, Transport: TransportTCP, Seed: 7})
	if a.Eng.Rand().Uint64() != b.Eng.Rand().Uint64() {
		t.Fatal("same seed should produce the same stream")
	}
}

func TestTwoLeavesWithoutSpinesStillConnect(t *testing.T) {
	// Spines defaults to 0; two leaves need at least one spine between
	// them or every cross-leaf frame is dropped as NO-ROUTE.
	c := New(Config{Nodes: 2, Transport: TransportSubstrate, Topology: &Topology{Leaves: 2}})
	if n := len(c.Fabric.Switches()); n != 3 {
		t.Fatalf("fabric has %d switches, want 2 leaves + 1 spine", n)
	}
	if rtt := echo(t, c); rtt <= 0 {
		t.Fatal("cross-leaf echo did not complete")
	}
	if n := c.TelemetrySnapshot().Sum("fabric/route_drops"); n != 0 {
		t.Fatalf("%d frames dropped for want of a route", n)
	}
}

func TestSwitchDownCrashesTheOnlySwitch(t *testing.T) {
	const at = 1 * sim.Millisecond
	c := New(Config{Nodes: 2, Transport: TransportTCP,
		Faults: &faults.Plan{SwitchCrashes: []faults.SwitchCrash{faults.SwitchDown(0, at)}}})
	var before, segsBefore int64
	c.Eng.At(sim.Time(at)-1, func() {
		before = c.Switch.Forwards()
		segsBefore = c.Nodes[1].Stack.SegsOut.Value
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		// Keep dialing past the crash so frames keep arriving.
		for p.Now() < sim.Time(3*at) {
			c.Nodes[1].Net.Dial(p, c.Addr(0), 7)
			p.Sleep(100 * sim.Microsecond)
		}
	})
	c.Run(10 * sim.Second)
	if before == 0 {
		t.Fatal("no frames forwarded before the crash")
	}
	if got := c.Switch.Forwards(); got != before {
		t.Fatalf("switch forwarded %d frames after its crash", got-before)
	}
	if c.Nodes[1].Stack.SegsOut.Value == segsBefore {
		t.Fatal("client sent nothing after the crash")
	}
}

func TestIdleFailoverClusterEndsAtOnce(t *testing.T) {
	c := New(Config{Nodes: 2, Failover: true})
	end := c.Run(RunLimit)
	if end >= sim.Time(sim.Millisecond) {
		t.Fatalf("idle Failover cluster ran to %v, want under 1ms", end)
	}
	// Only start-up: each node's procs take their first step and park.
	if n := c.Eng.Events(); n > 16*int64(len(c.Nodes)) {
		t.Fatalf("idle Failover cluster fired %d events, want O(nodes)", n)
	}
}

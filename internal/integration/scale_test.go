package integration

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// TestSixteenNodeAllToAll scales the substrate to a 16-node cluster with
// every node both serving and dialing every other node — 240
// simultaneous connections churning tags, descriptors and the shared
// fabric.
func TestSixteenNodeAllToAll(t *testing.T) {
	const nodes = 16
	const msgBytes = 2048
	c := cluster.NewSubstrate(nodes, nil)
	received := make([]int, nodes)
	wg := sim.NewWaitGroup(c.Eng, "all2all")
	for i := 0; i < nodes; i++ {
		i := i
		// Each node serves on its own port...
		c.Eng.Spawn("server", func(p *sim.Proc) {
			l, err := c.Nodes[i].Net.Listen(p, 100+i, nodes)
			if err != nil {
				t.Errorf("node %d listen: %v", i, err)
				return
			}
			for j := 0; j < nodes-1; j++ {
				accepted, err := l.Accept(p)
				if err != nil {
					t.Errorf("node %d accept: %v", i, err)
					return
				}
				conn := accepted
				p.Engine().Spawn("handler", func(hp *sim.Proc) {
					if n, _, err := sock.ReadFull(hp, conn, msgBytes); err == nil {
						received[i] += n
					}
					conn.Close(hp)
				})
			}
		})
		// ...and dials every peer.
		wg.Add(1)
		c.Eng.Spawn("dialer", func(p *sim.Proc) {
			defer wg.Done()
			p.Sleep(sim.Duration(10+i) * sim.Microsecond)
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				conn, err := c.Nodes[i].Net.Dial(p, c.Addr(j), 100+j)
				if err != nil {
					t.Errorf("node %d dial %d: %v", i, j, err)
					return
				}
				if _, err := conn.Write(p, msgBytes, nil); err != nil {
					t.Errorf("node %d write to %d: %v", i, j, err)
					return
				}
				conn.Close(p)
			}
		})
	}
	c.Run(120 * sim.Second)
	want := (nodes - 1) * msgBytes
	for i, got := range received {
		if got != want {
			t.Fatalf("node %d received %d bytes, want %d", i, got, want)
		}
	}
	// Every substrate must have cleaned its socket table.
	for i, n := range c.Nodes {
		if n.Sub.ActiveSockets() != 0 {
			t.Fatalf("node %d leaked %d sockets", i, n.Sub.ActiveSockets())
		}
		if n.Sub.EP.SendsFailed.Value != 0 {
			t.Fatalf("node %d had failed sends under the all-to-all load", i)
		}
	}
}

// TestSixteenNodeTCPFanIn: all 15 clients hammer one TCP server
// simultaneously — listener backlog, demux and kernel-path contention at
// scale.
func TestSixteenNodeTCPFanIn(t *testing.T) {
	const nodes = 16
	c := cluster.NewTCP(nodes)
	total := 0
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, _ := c.Nodes[0].Net.Listen(p, 80, nodes)
		for i := 0; i < nodes-1; i++ {
			accepted, err := l.Accept(p)
			if err != nil {
				return
			}
			conn := accepted
			p.Engine().Spawn("handler", func(hp *sim.Proc) {
				if n, _, err := sock.ReadFull(hp, conn, 10000); err == nil {
					total += n
				}
				conn.Close(hp)
			})
		}
	})
	for i := 1; i < nodes; i++ {
		i := i
		c.Eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * 5 * sim.Microsecond)
			conn, err := c.Nodes[i].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			conn.Write(p, 10000, nil)
			conn.Close(p)
		})
	}
	c.Run(60 * sim.Second)
	if total != (nodes-1)*10000 {
		t.Fatalf("server received %d bytes, want %d", total, (nodes-1)*10000)
	}
}

package cluster

import (
	"fmt"
	"strings"
)

// Report summarizes the cluster's counters after a run: per-node host
// and protocol activity plus fabric totals. Tests use it to assert
// resource accounting and to pin whole runs byte-for-byte.
func (c *Cluster) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, transport %v\n", len(c.Nodes), c.Cfg.Transport)
	if c.Fabric != nil {
		c.fabricReport(&b)
	} else {
		fs := c.Switch.FaultStats()
		fmt.Fprintf(&b, "fabric: %d frames forwarded, %d dropped\n", c.Switch.Forwards(), fs.Drops)
		if fs.Total() > 0 {
			fmt.Fprintf(&b, "fabric faults: %v\n", fs)
		}
	}
	for i, n := range c.Nodes {
		fmt.Fprintf(&b, "node %d:\n", i)
		if n.Incarnation > 1 {
			fmt.Fprintf(&b, "  incarnation: %d\n", n.Incarnation)
		}
		fmt.Fprintf(&b, "  host: %d syscalls, %d interrupts, %d ctx switches, %d bytes copied\n",
			n.Host.Syscalls.Value, n.Host.Interrupts.Value,
			n.Host.CtxSwitches.Value, n.Host.CopiedBytes.Value)
		if n.Sub != nil {
			s := n.Sub.EP.Stats()
			fmt.Fprintf(&b, "  emp: %d sends, %d recvs, %d delivered, %d uq hits, %d drops, %d rexmits, %d failed\n",
				s.SendsPosted, s.RecvsPosted, s.MsgsDelivered, s.UnexpectedHit,
				s.FramesDropped, s.Retransmits, s.SendsFailed)
			fmt.Fprintf(&b, "  substrate: %d connects, %d accepts, %d msgs, %d explicit acks, %d piggybacked, %d credit stalls, %d rendezvous, %d closes\n",
				n.Sub.ConnectsSent.Value, n.Sub.ConnsAccepted.Value,
				n.Sub.MsgsSent.Value, n.Sub.ExplicitAcks.Value,
				n.Sub.PiggybackAcks.Value, n.Sub.CreditStalls.Value,
				n.Sub.RendezvousOps.Value, n.Sub.ClosesSent.Value)
			fmt.Fprintf(&b, "  pin cache: %d hits, %d misses\n",
				n.Sub.EP.CacheHits.Value, n.Sub.EP.CacheMisses.Value)
			if n.Sub.ConnsFailed.Value > 0 || n.Sub.KeepalivesSent.Value > 0 ||
				n.Sub.DialRetries.Value > 0 || n.Sub.EP.NIC.FCSErrors.Value > 0 {
				fmt.Fprintf(&b, "  failures: %d conns failed, %d keepalives sent, %d dial retries, %d FCS drops\n",
					n.Sub.ConnsFailed.Value, n.Sub.KeepalivesSent.Value,
					n.Sub.DialRetries.Value, n.Sub.EP.NIC.FCSErrors.Value)
			}
		}
		if n.Stack != nil {
			fmt.Fprintf(&b, "  tcp: %d segs in, %d out, %d rexmits, %d fast rexmits, %d delayed acks, %d interrupts, %d ooo drops\n",
				n.Stack.SegsIn.Value, n.Stack.SegsOut.Value,
				n.Stack.Rexmits.Value, n.Stack.FastRetransmits.Value,
				n.Stack.DelayedAcks.Value, n.Stack.Interrupts.Value,
				n.Stack.DroppedSegs.Value)
			if n.Stack.ChecksumDrops.Value > 0 {
				fmt.Fprintf(&b, "  tcp faults: %d checksum drops\n", n.Stack.ChecksumDrops.Value)
			}
		}
		if n.FS != nil && (n.FS.Reads.Value > 0 || n.FS.Writes.Value > 0) {
			fmt.Fprintf(&b, "  fs: %d reads (%d bytes), %d writes (%d bytes)\n",
				n.FS.Reads.Value, n.FS.BytesRead.Value,
				n.FS.Writes.Value, n.FS.BytesWritten.Value)
		}
	}
	if blocked := c.Eng.BlockedProcs(); len(blocked) > 0 {
		fmt.Fprintf(&b, "blocked processes (%d):\n", len(blocked))
		for _, s := range blocked {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	return b.String()
}

// fabricReport renders the multi-switch fabric's per-switch and
// per-trunk table: forwards, drops (fault-injected, no-route, and
// trunk blackhole), and the reroute history.
func (c *Cluster) fabricReport(b *strings.Builder) {
	fb := c.Fabric
	var leaves, spines int
	for _, s := range fb.Switches() {
		if strings.HasPrefix(s.Name(), "spine") {
			spines++
		} else {
			leaves++
		}
	}
	fmt.Fprintf(b, "fabric: %d leaves + %d spines, %d trunks, %d frames forwarded, %d reroutes\n",
		leaves, spines, len(fb.Trunks()), fb.Forwards(), fb.Reroutes())
	for _, s := range fb.Switches() {
		state := ""
		if s.Dead() {
			state = " DEAD"
		}
		fs := s.FaultStats()
		fmt.Fprintf(b, "  switch %s: %d forwarded, %d dropped, %d no-route%s",
			s.Name(), s.Forwards(), fs.Drops, s.RouteDrops(), state)
		if fs.Total() > 0 {
			fmt.Fprintf(b, ", faults: %v", fs)
		}
		fmt.Fprintf(b, "\n")
	}
	for _, t := range fb.Trunks() {
		fab, fba := t.Forwards()
		dab, dba := t.Drops()
		state := ""
		if fb.TrunkDown(t.ID()) {
			state = " DOWN"
		}
		fmt.Fprintf(b, "  %s: %d carried, %d blackholed%s\n", t, fab+fba, dab+dba, state)
	}
	if fb.LinkDowns() > 0 || fb.SwitchDeaths() > 0 || fb.RouteDrops() > 0 {
		fmt.Fprintf(b, "fabric events: %d link downs, %d switch deaths, %d route drops\n",
			fb.LinkDowns(), fb.SwitchDeaths(), fb.RouteDrops())
	}
}

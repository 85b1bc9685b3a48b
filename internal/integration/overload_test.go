package integration

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Overload-resilience suite: a connect flood far beyond a listener's
// backlog must degrade to defined, typed refusals — never a hang, an
// unbounded queue, or a leaked descriptor.

// overloadOpts is the flood configuration: synchronous connects with no
// retries so every dialer observes exactly one verdict, plus all three
// resource budgets active.
func overloadOpts() *core.Options {
	o := core.DefaultOptions()
	o.SyncConnect = true
	o.DialRetries = 0
	o.DescriptorBudget = 4096
	o.EagerBudget = 1 << 20
	o.UQBytes = 256 << 10
	return &o
}

// runFlood aims dialers at a backlog-limited listener that never
// accepts and returns the per-error tallies.
func runFlood(t *testing.T, c *cluster.Cluster, dialersPerNode int) map[error]int {
	t.Helper()
	const backlog = 8
	clients := len(c.Nodes) - 1
	total := clients * dialersPerNode
	verdicts := make(map[error]int)
	resolved := 0
	var l sock.Listener
	c.Eng.Spawn("server", func(p *sim.Proc) {
		var err error
		l, err = c.Nodes[0].Net.Listen(p, 80, backlog)
		if err != nil {
			t.Errorf("listen: %v", err)
		}
	})
	for node := 1; node <= clients; node++ {
		for j := 0; j < dialersPerNode; j++ {
			node, j := node, j
			c.Eng.Spawn("dialer", func(p *sim.Proc) {
				// Stagger arrivals so the flood ramps rather than
				// delivering one synchronized burst.
				p.Sleep(sim.Duration(10+2*(j*clients+node)) * sim.Microsecond)
				_, err := c.Nodes[node].Net.Dial(p, c.Addr(0), 80)
				if err == nil {
					t.Errorf("dialer %d/%d connected to a listener that never accepts", node, j)
					err = nil
				}
				verdicts[err]++
				resolved++
			})
		}
	}
	c.Eng.Spawn("teardown", func(p *sim.Proc) {
		for resolved < total {
			p.Sleep(sim.Millisecond)
		}
		if l != nil {
			l.Close(p)
		}
	})
	c.Run(10 * sim.Second)
	if resolved != total {
		t.Fatalf("only %d/%d dialers resolved", resolved, total)
	}
	return verdicts
}

// TestOverloadFloodRefusesBeyondBacklog: 256 dialers against a backlog-8
// listener. Every dialer must fail with sock.ErrRefused (the explicit
// refusal) or sock.ErrTimeout (parked within the backlog slack until the
// connect deadline); the unexpected queue's peak occupancy must stay
// bounded by the refusal policy, not by the flood's size; and after the
// listener closes, the host-wide resource audit must be clean.
func TestOverloadFloodRefusesBeyondBacklog(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     5,
		Transport: cluster.TransportSubstrate,
		Substrate: overloadOpts(),
		Seed:      21,
	})
	verdicts := runFlood(t, c, 64)
	for err, n := range verdicts {
		if err != sock.ErrRefused && err != sock.ErrTimeout {
			t.Errorf("%d dialers failed with %v; only ErrRefused/ErrTimeout are defined under overload", n, err)
		}
	}
	if verdicts[sock.ErrRefused] == 0 {
		t.Error("no dialer was explicitly refused; the refusal policy never fired")
	}
	srv := c.Nodes[0].Sub
	if srv.RefusedConns.Value == 0 {
		t.Error("server refusal counter is zero")
	}
	// The queue must be bounded by backlog-slack refusal, far below the
	// 256 requests offered.
	if peak := c.Nodes[0].Tel.Snapshot().Sum("emp/uq_peak_entries"); peak > 64 {
		t.Errorf("unexpected-queue peak %d: flood occupancy is not bounded", peak)
	}
	for _, n := range c.Nodes {
		n.Sub.PurgeStale()
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Errorf("after flood:\n%s", rep)
	}
}

// TestOverloadFloodUnderFaultPlan repeats the flood under a randomized
// fault plan (loss, duplication, corruption, reordering): fabric damage
// may additionally surface as ErrReset, but never as a hang, an
// unbounded queue, or a dirty audit.
func TestOverloadFloodUnderFaultPlan(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		c := cluster.New(cluster.Config{
			Nodes:     5,
			Transport: cluster.TransportSubstrate,
			Substrate: overloadOpts(),
			Seed:      seed,
			Faults:    faults.RandomPlan(seed, 5, sim.Second),
		})
		verdicts := runFlood(t, c, 32)
		for err, n := range verdicts {
			if err != sock.ErrRefused && err != sock.ErrTimeout && err != sock.ErrReset {
				t.Errorf("seed %d: %d dialers failed with %v", seed, n, err)
			}
		}
		if peak := c.Nodes[0].Tel.Snapshot().Sum("emp/uq_peak_entries"); peak > 64 {
			t.Errorf("seed %d: unexpected-queue peak %d under faults", seed, peak)
		}
		for _, n := range c.Nodes {
			if n.Sub != nil && !n.Sub.Dead() {
				n.Sub.PurgeStale()
			}
		}
		if rep := audit.Cluster(c); !rep.Clean() {
			t.Errorf("seed %d: after faulted flood:\n%s", seed, rep)
		}
	}
}

// TestOverloadStarvedReadersBoundEagerPool: many senders against one
// never-reading receiver node must be held by the eager byte budget —
// the staged-byte gauge stays at or under the budget no matter how much
// the senders offer.
func TestOverloadStarvedReadersBoundEagerPool(t *testing.T) {
	opts := overloadOpts()
	opts.EagerBudget = 64 << 10
	// Keep the credit window small: bytes already admitted by credits
	// when the budget fills are staged regardless (they are on the wire
	// and cannot be refused), so the credit window bounds the overshoot.
	opts.Credits = 4
	c := cluster.New(cluster.Config{
		Nodes:     5,
		Transport: cluster.TransportSubstrate,
		Substrate: opts,
		Seed:      31,
	})
	const conns = 4
	accepted := 0
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, conns)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < conns; i++ {
			conn, err := l.Accept(p)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			accepted++
			// Pump arrivals into the staging buffers without consuming:
			// 1-byte reads keep the reader as starved as possible while
			// still exercising the gauge.
			c.Eng.Spawn("starved-reader", func(rp *sim.Proc) {
				for {
					if _, _, err := conn.Read(rp, 1); err != nil {
						return
					}
					rp.Sleep(5 * sim.Millisecond)
				}
			})
		}
	})
	for node := 1; node <= conns; node++ {
		node := node
		c.Eng.Spawn("sender", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10*node) * sim.Microsecond)
			conn, err := c.Nodes[node].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("sender %d dial: %v", node, err)
				return
			}
			conn.(sock.Deadliner).SetWriteDeadline(p.Now().Add(200 * sim.Millisecond))
			for i := 0; i < 64; i++ {
				if _, err := conn.Write(p, 16<<10, i); err != nil {
					return // backpressure (timeout) is the expected end
				}
			}
		})
	}
	c.Run(2 * sim.Second)
	if accepted != conns {
		t.Fatalf("accepted %d/%d", accepted, conns)
	}
	hw := int(c.Nodes[0].Tel.Snapshot().Sum("core/eager_high_water"))
	if hw == 0 {
		t.Fatal("eager gauge never moved; senders did not reach staging")
	}
	// The high-water mark may exceed the budget by at most the credit
	// window: messages already admitted by credits when the budget
	// filled are on the wire and cannot be refused. Deferred reposts
	// withhold further credit, so nothing beyond the window lands.
	slack := conns * opts.Credits * (16 << 10)
	if hw > opts.EagerBudget+slack {
		t.Fatalf("eager high water %d exceeds budget %d + credit-window slack %d", hw, opts.EagerBudget, slack)
	}
	if deferrals := c.Nodes[0].Sub.EagerDeferrals.Value; deferrals == 0 {
		t.Fatal("budget never deferred a repost; backpressure path untested")
	}
}

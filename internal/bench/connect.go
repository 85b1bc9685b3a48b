package bench

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// connectTime measures the mean Dial() completion time over several
// fresh connections (each closed before the next opens).
func connectTime(c *cluster.Cluster, iters int) sim.Duration {
	var total sim.Duration
	completed := 0
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			return
		}
		for i := 0; i < iters; i++ {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			conn.Read(p, 64) // observe the close
			conn.Close(p)
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			start := p.Now()
			conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				return
			}
			total += p.Now().Sub(start)
			completed++
			conn.Close(p)
			p.Sleep(100 * sim.Microsecond)
		}
	})
	c.Run(60 * sim.Second)
	if completed == 0 {
		return 0
	}
	return total / sim.Duration(completed)
}

// ExtConnectionTime isolates the connection-establishment cost the
// Section 7.4 discussion hinges on: TCP pays the kernel three-way
// handshake (~200-250 us in the paper); the substrate's asynchronous
// connect returns after posting descriptors and sending one message,
// and even the synchronous variant needs only a user-level round trip.
func ExtConnectionTime() Figure {
	syncOpts := core.DefaultOptions()
	syncOpts.SyncConnect = true
	// Variant i is the one point at x = i, so each runs once.
	variant := func(i int, name string, build func() *cluster.Cluster) curve {
		return curve{name, func(x int) (float64, bool) {
			if x != i {
				return 0, false
			}
			return connectTime(build(), 20).Micros(), true
		}}
	}
	return sweep(Figure{
		ID:        "ext-connect",
		Title:     "Connection establishment time",
		XLabel:    "variant",
		YLabel:    "connect() time (us)",
		PaperNote: "TCP connection time is 'typically about 200 to 250 us'; the substrate reduces it to a message exchange",
	}, []int{0, 1, 2},
		variant(0, "substrate-async", substrate(2, dsDAUQ())),
		variant(1, "substrate-sync", substrate(2, &syncOpts)),
		variant(2, "tcp", tcp(2)))
}

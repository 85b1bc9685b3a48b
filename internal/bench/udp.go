package bench

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// udpLatency measures kernel UDP mean one-way latency in us over a
// TCP-transport cluster (the UDP sockets live on the same kernel stacks).
func udpLatency(c *cluster.Cluster, n int) (float64, bool) {
	var total sim.Duration
	completed := 0
	c.Eng.Spawn("udp-server", func(p *sim.Proc) {
		u, err := c.Nodes[0].Stack.UDPOpen(p, 5353)
		if err != nil {
			return
		}
		for i := 0; i < latencyIters; i++ {
			_, _, src, sport, err := u.RecvFrom(p, n)
			if err != nil {
				return
			}
			u.SendTo(p, src, sport, n, nil)
		}
	})
	c.Eng.Spawn("udp-client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		u, err := c.Nodes[1].Stack.UDPOpen(p, 0)
		if err != nil {
			return
		}
		for i := 0; i < latencyIters; i++ {
			start := p.Now()
			u.SendTo(p, c.Addr(0), 5353, n, nil)
			if _, _, _, _, err := u.RecvFrom(p, n); err != nil {
				return
			}
			total += p.Now().Sub(start)
			completed++
		}
	})
	c.Run(60 * sim.Second)
	if completed == 0 {
		return 0, true
	}
	return (total / sim.Duration(2*completed)).Micros(), true
}

// ExtUDPComparison pits the substrate's Datagram sockets against kernel
// UDP — the datagram-semantics baseline the paper's Datagram mode
// replaces. UDP skips TCP's connection and reliability machinery but
// still pays the full kernel path (syscalls, copies, interrupt
// coalescing), so the substrate's OS-bypass advantage persists.
func ExtUDPComparison() Figure {
	return sweep(Figure{
		ID:        "ext-udp",
		Title:     "Datagram sockets vs kernel UDP latency",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "the substrate's Datagram mode keeps UDP-like semantics without the kernel path",
	}, []int{4, 256, 1024},
		on("Datagram (substrate)", substrate(2, dg()), latency),
		on("UDP (kernel)", tcp(2), udpLatency))
}

package bench

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sock"
)

// latencyIters and the stream sizes trade run time against smoothing;
// the simulation is deterministic, so small counts suffice.
const latencyIters = 40

// sockPingPong measures mean one-way latency for n-byte messages over a
// two-node cluster's transport.
func sockPingPong(c *cluster.Cluster, n, iters int) sim.Duration {
	var total sim.Duration
	completed := 0
	c.Eng.Spawn("pp-server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 7000, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < iters; i++ {
			if _, _, err := sock.ReadFull(p, conn, n); err != nil {
				return
			}
			conn.Write(p, n, nil)
		}
	})
	c.Eng.Spawn("pp-client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 7000)
		if err != nil {
			return
		}
		for i := 0; i < iters; i++ {
			start := p.Now()
			conn.Write(p, n, nil)
			if _, _, err := sock.ReadFull(p, conn, n); err != nil {
				return
			}
			total += p.Now().Sub(start)
			completed++
		}
	})
	c.Run(120 * sim.Second)
	if completed == 0 {
		return 0
	}
	return total / sim.Duration(2*completed)
}

// streamBytes is how much a bandwidth point streams.
const streamBytes = 16 << 20

// bandwidth measures the streaming bandwidth in Mbps of writing
// streamBytes in chunk-sized writes.
func bandwidth(c *cluster.Cluster, chunk int) (float64, bool) {
	var start, end sim.Time
	c.Eng.Spawn("bw-server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 7001, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		got := 0
		start = p.Now()
		for got < streamBytes {
			n, _, err := conn.Read(p, 256<<10)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
		end = p.Now()
	})
	c.Eng.Spawn("bw-client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 7001)
		if err != nil {
			return
		}
		sent := 0
		for sent < streamBytes {
			w := min(chunk, streamBytes-sent)
			conn.Write(p, w, nil)
			sent += w
		}
	})
	c.Run(cluster.RunLimit)
	if end <= start {
		return 0, true
	}
	return float64(streamBytes) * 8 / end.Sub(start).Seconds() / 1e6, true
}

// empBed builds a raw two-endpoint EMP fabric (the paper's "EMP" curve).
func empBed() (*sim.Engine, [2]*emp.Endpoint) {
	e := sim.NewEngine()
	sw := ethernet.NewSwitch(e)
	var eps [2]*emp.Endpoint
	for i := range eps {
		h := kernel.NewHost(e, "h", 4)
		n := nic.New(e, "n", nic.DefaultConfig())
		n.Attach(sw)
		eps[i] = emp.NewEndpoint(e, h, n, emp.DefaultEndpointConfig())
	}
	return e, eps
}

// empLatency measures raw EMP mean one-way latency in us.
func empLatency(n int) (float64, bool) {
	e, eps := empBed()
	var total sim.Duration
	completed := 0
	e.Spawn("node0", func(p *sim.Proc) {
		for i := 0; i < latencyIters; i++ {
			h := eps[0].PostRecv(p, eps[1].Addr(), 9, n, 11)
			start := p.Now()
			eps[0].Send(p, eps[1].Addr(), 8, n, nil, 10)
			eps[0].WaitRecv(p, h)
			total += p.Now().Sub(start)
			completed++
		}
	})
	e.Spawn("node1", func(p *sim.Proc) {
		for i := 0; i < latencyIters; i++ {
			h := eps[1].PostRecv(p, eps[0].Addr(), 8, n, 21)
			eps[1].WaitRecv(p, h)
			eps[1].Send(p, eps[0].Addr(), 9, n, nil, 20)
		}
	})
	e.RunUntil(sim.Time(60 * sim.Second))
	if completed == 0 {
		return 0, true
	}
	return (total / sim.Duration(2*completed)).Micros(), true
}

// empBandwidth measures raw EMP streaming bandwidth in Mbps with
// msgSize messages.
func empBandwidth(msgSize int) (float64, bool) {
	e, eps := empBed()
	msgs := max(streamBytes/msgSize, 1)
	var start, end sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		handles := make([]*emp.RecvHandle, 0, msgs)
		for i := 0; i < msgs; i++ {
			handles = append(handles, eps[1].PostRecv(p, eps[0].Addr(), 5, msgSize, 100))
		}
		for _, h := range handles {
			eps[1].WaitRecv(p, h)
		}
		end = p.Now()
	})
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			eps[0].Send(p, eps[1].Addr(), 5, msgSize, nil, 10)
		}
	})
	e.RunUntil(sim.Time(60 * sim.Second))
	if end <= start {
		return 0, true
	}
	return float64(msgs*msgSize) * 8 / end.Sub(start).Seconds() / 1e6, true
}

// substrate option sets for the figure legends.
func dsBasic() *core.Options {
	o := core.BasicDSOptions()
	return &o
}

func dsDA() *core.Options {
	o := core.BasicDSOptions()
	o.DelayedAcks = true
	return &o
}

func dsDAUQ() *core.Options {
	o := core.DefaultOptions()
	return &o
}

func dg() *core.Options {
	o := core.DatagramOptions()
	return &o
}

// Fig11LatencyAlternatives reproduces Figure 11: small-message latency
// of the substrate variants (DS, DS_DA, DS_DA_UQ, DG) against raw EMP.
func Fig11LatencyAlternatives(sizes []int) Figure {
	return sweep(Figure{
		ID:        "fig11",
		Title:     "Micro-benchmark latency of the substrate alternatives",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "DG 28.5us (~1us over EMP 28us), DS_DA_UQ 37us at 4 bytes; DS > DS_DA > DS_DA_UQ",
	}, sizes,
		on("DS", substrate(2, dsBasic()), latency),
		on("DS_DA", substrate(2, dsDA()), latency),
		on("DS_DA_UQ", substrate(2, dsDAUQ()), latency),
		on("DG", substrate(2, dg()), latency),
		curve{"EMP", empLatency})
}

// Fig12CreditSweep reproduces Figure 12: 4-byte latency against credit
// size with delayed acknowledgments, keeping acknowledgment descriptors
// in the NIC's tag-match list (the 550 ns/descriptor effect).
func Fig12CreditSweep(credits []int) Figure {
	return sweep(Figure{
		ID:        "fig12",
		Title:     "Latency variation for delayed acknowledgments with credit size",
		XLabel:    "credits",
		YLabel:    "one-way latency (us)",
		PaperNote: "latency falls as credits grow 1->32: ack descriptors drop from 50% to 6.25% of the tag-match walk",
	}, credits, curve{"DS_DA", func(n int) (float64, bool) {
		o := core.DefaultOptions()
		o.UQAcks = false
		o.Credits = n
		return latency(cluster.NewSubstrate(2, &o), 4)
	}})
}

// Fig13Latency reproduces the latency half of Figure 13: substrate
// (Data Streaming with all enhancements, and Datagram) against TCP.
func Fig13Latency(sizes []int) Figure {
	return sweep(Figure{
		ID:        "fig13-latency",
		Title:     "Latency: substrate vs kernel TCP",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "DG 28.5us and DS 37us vs TCP ~120us at 4 bytes: 4.2x and 3.4x",
	}, sizes,
		on("Datagram", substrate(2, dg()), latency),
		on("DataStreaming", substrate(2, dsDAUQ()), latency),
		on("TCP", tcp(2), latency))
}

// Fig13Bandwidth reproduces the bandwidth half of Figure 13: substrate
// streaming against TCP with default (16 KB) and enlarged kernel
// buffers, with raw EMP for reference.
func Fig13Bandwidth(msgSizes []int) Figure {
	return sweep(Figure{
		ID:        "fig13-bandwidth",
		Title:     "Bandwidth: substrate vs kernel TCP",
		XLabel:    "write bytes",
		YLabel:    "bandwidth (Mbps)",
		PaperNote: "substrate peaks above 840 Mbps vs TCP 340 Mbps (16KB buffers) / 550 Mbps (enlarged)",
	}, msgSizes,
		on("DataStreaming", substrate(2, dsDAUQ()), bandwidth),
		on("TCP-16KB", tcp(2), bandwidth),
		on("TCP-256KB", func() *cluster.Cluster { return cluster.NewTCPBig(2) }, bandwidth),
		curve{"EMP", empBandwidth})
}

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

// sockStream measures streaming bandwidth in Mbps writing total bytes in
// chunk-sized writes.
func sockStream(c *cluster.Cluster, total, chunk int) float64 {
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
		for got < total {
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
		for sent < total {
			w := chunk
			if total-sent < w {
				w = total - sent
			}
			conn.Write(p, w, nil)
			sent += w
		}
	})
	c.Run(600 * sim.Second)
	if end <= start {
		return 0
	}
	return float64(total) * 8 / end.Sub(start).Seconds() / 1e6
}

// empBed builds a raw two-endpoint EMP fabric (the paper's "EMP" curve).
func empBed() (*sim.Engine, [2]*emp.Endpoint) {
	e := sim.NewEngine()
	sw := ethernet.NewSwitch(e, ethernet.DefaultSwitchConfig())
	var eps [2]*emp.Endpoint
	for i := range eps {
		h := kernel.NewHost(e, "h", 4, kernel.DefaultCosts())
		n := nic.New(e, "n", nic.DefaultConfig())
		n.Attach(sw)
		eps[i] = emp.NewEndpoint(e, h, n, emp.DefaultEndpointConfig())
	}
	return e, eps
}

// empPingPong measures raw EMP one-way latency.
func empPingPong(n, iters int) sim.Duration {
	e, eps := empBed()
	var total sim.Duration
	completed := 0
	e.Spawn("node0", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			h := eps[0].PostRecv(p, eps[1].Addr(), 9, n, 11)
			start := p.Now()
			eps[0].Send(p, eps[1].Addr(), 8, n, nil, 10)
			eps[0].WaitRecv(p, h)
			total += p.Now().Sub(start)
			completed++
		}
	})
	e.Spawn("node1", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			h := eps[1].PostRecv(p, eps[0].Addr(), 8, n, 21)
			eps[1].WaitRecv(p, h)
			eps[1].Send(p, eps[0].Addr(), 9, n, nil, 20)
		}
	})
	e.RunUntil(sim.Time(60 * sim.Second))
	if completed == 0 {
		return 0
	}
	return total / sim.Duration(2*completed)
}

// empStream measures raw EMP streaming bandwidth with msgSize messages.
func empStream(total, msgSize int) float64 {
	e, eps := empBed()
	msgs := total / msgSize
	if msgs < 1 {
		msgs = 1
	}
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
		return 0
	}
	return float64(msgs*msgSize) * 8 / end.Sub(start).Seconds() / 1e6
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
	fig := Figure{
		ID:        "fig11",
		Title:     "Micro-benchmark latency of the substrate alternatives",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "DG 28.5us (~1us over EMP 28us), DS_DA_UQ 37us at 4 bytes; DS > DS_DA > DS_DA_UQ",
	}
	variants := []struct {
		name string
		opts *core.Options
	}{
		{"DS", dsBasic()},
		{"DS_DA", dsDA()},
		{"DS_DA_UQ", dsDAUQ()},
		{"DG", dg()},
	}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, n := range sizes {
			lat := sockPingPong(cluster.NewSubstrate(2, v.opts), n, latencyIters)
			s.Points = append(s.Points, Point{X: float64(n), Y: lat.Micros()})
		}
		fig.Series = append(fig.Series, s)
	}
	s := Series{Name: "EMP"}
	for _, n := range sizes {
		s.Points = append(s.Points, Point{X: float64(n), Y: empPingPong(n, latencyIters).Micros()})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// Fig12CreditSweep reproduces Figure 12: 4-byte latency against credit
// size with delayed acknowledgments, keeping acknowledgment descriptors
// in the NIC's tag-match list (the 550 ns/descriptor effect).
func Fig12CreditSweep(credits []int) Figure {
	fig := Figure{
		ID:        "fig12",
		Title:     "Latency variation for delayed acknowledgments with credit size",
		XLabel:    "credits",
		YLabel:    "one-way latency (us)",
		PaperNote: "latency falls as credits grow 1->32: ack descriptors drop from 50% to 6.25% of the tag-match walk",
	}
	s := Series{Name: "DS_DA"}
	for _, n := range credits {
		o := core.DefaultOptions()
		o.UQAcks = false
		o.Credits = n
		lat := sockPingPong(cluster.NewSubstrate(2, &o), 4, latencyIters)
		s.Points = append(s.Points, Point{X: float64(n), Y: lat.Micros()})
	}
	fig.Series = []Series{s}
	return fig
}

// Fig13Latency reproduces the latency half of Figure 13: substrate
// (Data Streaming with all enhancements, and Datagram) against TCP.
func Fig13Latency(sizes []int) Figure {
	fig := Figure{
		ID:        "fig13-latency",
		Title:     "Latency: substrate vs kernel TCP",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "DG 28.5us and DS 37us vs TCP ~120us at 4 bytes: 4.2x and 3.4x",
	}
	for _, v := range []struct {
		name  string
		build func() *cluster.Cluster
	}{
		{"Datagram", func() *cluster.Cluster { return cluster.NewSubstrate(2, dg()) }},
		{"DataStreaming", func() *cluster.Cluster { return cluster.NewSubstrate(2, dsDAUQ()) }},
		{"TCP", func() *cluster.Cluster { return cluster.NewTCP(2) }},
	} {
		s := Series{Name: v.name}
		for _, n := range sizes {
			lat := sockPingPong(v.build(), n, latencyIters)
			s.Points = append(s.Points, Point{X: float64(n), Y: lat.Micros()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig13Bandwidth reproduces the bandwidth half of Figure 13: substrate
// streaming against TCP with default (16 KB) and enlarged kernel
// buffers, with raw EMP for reference.
func Fig13Bandwidth(msgSizes []int) Figure {
	fig := Figure{
		ID:        "fig13-bandwidth",
		Title:     "Bandwidth: substrate vs kernel TCP",
		XLabel:    "write bytes",
		YLabel:    "bandwidth (Mbps)",
		PaperNote: "substrate peaks above 840 Mbps vs TCP 340 Mbps (16KB buffers) / 550 Mbps (enlarged)",
	}
	const total = 16 << 20
	for _, v := range []struct {
		name  string
		build func() *cluster.Cluster
	}{
		{"DataStreaming", func() *cluster.Cluster { return cluster.NewSubstrate(2, dsDAUQ()) }},
		{"TCP-16KB", func() *cluster.Cluster { return cluster.NewTCP(2) }},
		{"TCP-256KB", func() *cluster.Cluster { return cluster.NewTCPBig(2) }},
	} {
		s := Series{Name: v.name}
		for _, n := range msgSizes {
			s.Points = append(s.Points, Point{X: float64(n), Y: sockStream(v.build(), total, n)})
		}
		fig.Series = append(fig.Series, s)
	}
	s := Series{Name: "EMP"}
	for _, n := range msgSizes {
		s.Points = append(s.Points, Point{X: float64(n), Y: empStream(total, n)})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

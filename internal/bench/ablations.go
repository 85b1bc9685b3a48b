package bench

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/nic"
	"repro/internal/tcpip"
)

// ablationCommThread quantifies the rejected separate-communication-
// thread alternative of Section 5.2: the paper measured ~20 us of
// thread-synchronization cost per message, which is why the design was
// dropped.
func ablationCommThread() Figure {
	withThread := core.DefaultOptions()
	withThread.CommThread = true
	return sweep(Figure{
		ID:        "ablation-commthread",
		Title:     "Rejected alternative: separate communication thread",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "the paper measured ~20us thread synchronization cost and ~50% CPU loss; rejected",
	}, []int{4, 256, 1024},
		on("eager (adopted)", substrate(2, dsDAUQ()), latency),
		on("comm thread", substrate(2, &withThread), latency))
}

// ablationRendezvous compares the Section 5.2 rendezvous alternative
// against eager delivery for small messages: the extra synchronization
// round trip roughly triples small-message latency, which is why
// rendezvous is reserved for large Datagram transfers.
func ablationRendezvous() Figure {
	forced := core.DatagramOptions()
	forced.ForceRendezvous = true
	return sweep(Figure{
		ID:        "ablation-rendezvous",
		Title:     "Rendezvous vs eager for small messages (Datagram mode)",
		XLabel:    "msg bytes",
		YLabel:    "one-way latency (us)",
		PaperNote: "rendezvous adds a request/ack synchronization before every message (Figure 6)",
	}, []int{4, 256, 1024},
		on("eager", substrate(2, dg()), latency),
		on("rendezvous", substrate(2, &forced), latency))
}

// ablationPiggyback isolates the piggybacked-acknowledgment
// optimization of Section 6.1 under a bidirectional request/response
// load, where returning credits on data messages eliminates explicit
// ack traffic entirely.
func ablationPiggyback() Figure {
	// With delayed acks the receiver accumulates credit returns below
	// the explicit-ack threshold; piggybacking lets the next outgoing
	// data message carry them, so explicit acks all but disappear in a
	// request/response exchange. Without piggybacking every threshold
	// crossing costs an explicit message.
	explicitAcks := func(c *cluster.Cluster, n int) (float64, bool) {
		sockPingPong(c, n, 100) // request/response: reverse data always flows
		return float64(c.Nodes[0].Sub.ExplicitAcks.Value + c.Nodes[1].Sub.ExplicitAcks.Value), true
	}
	noPiggy := core.DefaultOptions()
	noPiggy.Piggyback = false
	return sweep(Figure{
		ID:        "ablation-piggyback",
		Title:     "Piggybacked credit returns vs explicit-only acks (bidirectional)",
		XLabel:    "msg bytes",
		YLabel:    "explicit ack messages",
		PaperNote: "piggybacking removes explicit ack messages whenever reverse data flows",
	}, []int{256, 4096},
		on("piggyback on", substrate(2, dsDAUQ()), explicitAcks),
		on("piggyback off", substrate(2, &noPiggy), explicitAcks))
}

// ablationTCPBuffers sweeps the kernel socket buffer size, reproducing
// the paper's observation that enlarging the default 16 KB buffers
// lifts TCP from ~340 to ~550 Mbps, after which more space does not
// help (the CPU becomes the bottleneck).
func ablationTCPBuffers() Figure {
	return sweep(Figure{
		ID:        "ablation-tcpbuf",
		Title:     "TCP bandwidth vs socket buffer size",
		XLabel:    "sockbuf bytes",
		YLabel:    "bandwidth (Mbps)",
		PaperNote: "16KB -> ~340 Mbps; enlarged -> ~550 Mbps plateau",
	}, []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10},
		curve{"TCP", func(buf int) (float64, bool) {
			cfg := tcpip.DefaultStackConfig()
			cfg.SndBuf = buf
			cfg.RcvBuf = buf
			return bandwidth(cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportTCP, TCP: &cfg}), 64<<10)
		}})
}

// ablationJumboFrames measures the EMP-lineage extensions: 9000-byte
// jumbo frames (the EMP paper reports ~964 Mbps with them) and
// splitting receive processing across both Tigon2 CPUs (the companion
// IPDPS'02 study). Both attack the per-frame receive-processing cost
// that caps standard-frame EMP in the mid-800s.
func ablationJumboFrames() Figure {
	jumbo := func(name string, mtu, cpus int) curve {
		nicCfg := nic.DefaultConfig()
		nicCfg.MTU = mtu
		nicCfg.RxCPUs = cpus
		return on(name, func() *cluster.Cluster {
			return cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, NIC: &nicCfg})
		}, bandwidth)
	}
	return sweep(Figure{
		ID:        "ablation-jumbo",
		Title:     "Substrate bandwidth: jumbo frames and multi-CPU receive",
		XLabel:    "write bytes",
		YLabel:    "bandwidth (Mbps)",
		PaperNote: "EMP (SC'01) reaches ~964 Mbps with jumbo frames; IPDPS'02 studies multi-CPU NIC receive",
	}, []int{64 << 10, 256 << 10},
		jumbo("1500B, 1 rx cpu", ethernet.MTU, 1),
		jumbo("9000B, 1 rx cpu", ethernet.JumboMTU, 1),
		jumbo("1500B, 2 rx cpus", ethernet.MTU, 2),
		jumbo("9000B, 2 rx cpus", ethernet.JumboMTU, 2))
}

// ablationCreditVsConnSetup sweeps the credit size under the web
// workload, reproducing the Section 7.4 trade-off: big credit windows
// waste connection setup and teardown time on descriptors a
// one-request connection never uses.
func ablationCreditVsConnSetup() Figure {
	return sweep(Figure{
		ID:        "ablation-credits-web",
		Title:     "Web response time vs credit size (HTTP/1.0)",
		XLabel:    "credits",
		YLabel:    "avg response time (us)",
		PaperNote: "the paper picks credit size 4 here: posting and garbage-collecting 32 descriptors per one-request connection wastes time",
	}, []int{2, 4, 8, 16, 32}, curve{"DataStreaming", func(credits int) (float64, bool) {
		o := core.DefaultOptions()
		o.Credits = credits
		return web(1)(cluster.NewSubstrate(4, &o), 1024)
	}})
}

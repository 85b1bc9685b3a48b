// Raw EMP example: program the NIC-level message-passing layer directly
// — tagged sends, pre-posted receives, the unexpected queue — without
// the sockets substrate on top. This is the API the substrate maps
// sockets onto; comparing its timing against examples/quickstart shows
// what the sockets semantics cost.
package main

import (
	"fmt"

	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng, ethernet.DefaultSwitchConfig())

	build := func() *emp.Endpoint {
		host := kernel.NewHost(eng, "host", 4, kernel.DefaultCosts())
		n := nic.New(eng, "nic", nic.DefaultConfig())
		n.Attach(sw)
		cfg := emp.DefaultEndpointConfig()
		cfg.UnexpectedSlots = 8
		return emp.NewEndpoint(eng, host, n, cfg)
	}
	a, b := build(), build()

	const tagPing, tagPong emp.Tag = 1, 2
	const iters = 10

	eng.Spawn("nodeB", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			h := b.PostRecv(p, a.Addr(), tagPing, 4096, 1)
			msg, st := b.WaitRecv(p, h)
			if st != emp.StatusOK {
				fmt.Printf("B: recv failed: %v\n", st)
				return
			}
			b.Send(p, a.Addr(), tagPong, msg.Len, msg.Data, 2)
		}
	})
	eng.Spawn("nodeA", func(p *sim.Proc) {
		var total sim.Duration
		for i := 0; i < iters; i++ {
			h := a.PostRecv(p, b.Addr(), tagPong, 4096, 3)
			start := p.Now()
			a.Send(p, b.Addr(), tagPing, 4, fmt.Sprintf("ping-%d", i), 4)
			msg, st := a.WaitRecv(p, h)
			if st != emp.StatusOK {
				fmt.Printf("A: recv failed: %v\n", st)
				return
			}
			total += p.Now().Sub(start)
			_ = msg
		}
		fmt.Printf("raw EMP 4-byte one-way latency: %v (paper: ~28 us)\n",
			total/sim.Duration(2*iters))
	})
	// An unexpected message: sent before any receive is posted, parked
	// in the unexpected queue, claimed by a later post.
	eng.Spawn("unexpected", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		a.Send(p, b.Addr(), 42, 64, "early bird", 5)
	})
	eng.Spawn("claimer", func(p *sim.Proc) {
		p.Sleep(8 * sim.Millisecond)
		h := b.PostRecv(p, a.Addr(), 42, 4096, 6)
		msg, st := b.WaitRecv(p, h)
		fmt.Printf("unexpected-queue claim: %v %q (uq hits: %d)\n",
			st, msg.Data, b.UnexpectedHits.Value)
	})
	eng.RunUntil(sim.Time(sim.Second))
	printStats("A", a)
	printStats("B", b)
}

// printStats summarizes an endpoint's protocol counters on one line.
func printStats(name string, ep *emp.Endpoint) {
	fmt.Printf("%s stats: sends=%d recvs=%d delivered=%d uqhits=%d drops=%d rexmit=%d acks=%d nacks=%d failed=%d\n",
		name, ep.SendsPosted.Value, ep.RecvsPosted.Value, ep.MsgsDelivered.Value,
		ep.UnexpectedHits.Value, ep.FramesDropped.Value, ep.Retransmits.Value,
		ep.AcksSent.Value, ep.NacksSent.Value, ep.SendsFailed.Value)
}

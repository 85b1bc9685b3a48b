package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Connection-scaling study: the event-driven poller's reason to exist.
// A single-process echo server multiplexes N registered connections, of
// which only a small fixed set (the pacers) actually sends requests —
// the shape of a data-center front end holding mostly-idle keep-alive
// connections. A broadcast-wakeup server re-scans all N sockets per
// wakeup, so its per-event work grows linearly in N; the completion-
// queue poller touches only the sockets whose notifications fired, so
// its scanned-per-wait stays flat as N grows. The poller's own counters
// are the measurement.

// connScaleReqBytes is the echo request/response size: small, so the
// experiment measures event dispatch rather than data movement.
const connScaleReqBytes = 64

// connScalePacers is how many of the registered connections actively
// issue requests; the rest connect, register, and sit idle.
const connScalePacers = 8

// connScaleReqs is the echo round trips each pacer performs.
const connScaleReqs = 16

// connScaleActiveReqs is the round-trip count per connection in the
// all-active variant: smaller, because every connection paces.
const connScaleActiveReqs = 4

// connScaleConnsPerClient caps the connections dialed from one client
// node. The substrate's dynamic tag space (0x0100..0x3FFF, four tags
// per connection) tops out near 4k connections per dialing node, so
// the extended sweep shards dialers across enough client nodes to stay
// comfortably inside it; counts at or below the cap keep the original
// single-client topology.
const connScaleConnsPerClient = 2048

// ConnScalePoint is one measurement of the sweep.
type ConnScalePoint struct {
	Transport string `json:"transport"`
	Conns     int    `json:"conns"`
	// Active marks the all-active variant: every registered connection
	// paces requests, measuring dispatch throughput rather than the
	// idle-population scan cost.
	Active    bool  `json:"active,omitempty"`
	Requests  int   `json:"requests"`
	Waits     int64 `json:"waits"`
	Delivered int64 `json:"delivered"`
	Scanned   int64 `json:"scanned"`
	// ScannedPerWait is the per-Wait readiness work: the number of
	// registered objects whose state the poller re-checked, averaged
	// over every Wait. Flat across N is the scalability claim.
	ScannedPerWait float64      `json:"scanned_per_wait"`
	Elapsed        sim.Duration `json:"elapsed_ns"`
	// ReqPerSec is the served request rate (all-active variant's
	// dispatch-throughput measure).
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	// Hashed marks points run under the hashed demux cost model: the
	// substrate NIC charges its tag match by bucket probes instead of
	// the paper-faithful linear walk. TCP's 4-tuple table is hashed in
	// both modes; the flag labels the sweep the gate compares.
	Hashed bool `json:"hashed,omitempty"`
	// ClientNodes is how many client nodes the dials were sharded
	// across (1 up to connScaleConnsPerClient connections).
	ClientNodes int `json:"client_nodes,omitempty"`
	// DemuxLookups / DemuxWork are the server-side demultiplexer's
	// charged lookup counters: tag-match lookups and descriptors
	// walked (substrate NIC), or segment lookups and hash-chain
	// entries probed (TCP). DemuxCost = DemuxWork / DemuxLookups is
	// the per-dispatch lookup cost the hashed-mode gate requires to
	// stay flat as registered connections grow.
	DemuxLookups int64   `json:"demux_lookups,omitempty"`
	DemuxWork    int64   `json:"demux_work,omitempty"`
	DemuxCost    float64 `json:"demux_cost,omitempty"`
	Err          string  `json:"err,omitempty"`
}

// DefaultConnScaleCounts is the sweep the acceptance run uses.
func DefaultConnScaleCounts() []int { return []int{8, 64, 256, 1024} }

// DefaultConnScaleActiveCounts is the all-active sweep; it stops below
// the idle sweep's top end because every connection carries traffic.
func DefaultConnScaleActiveCounts() []int { return []int{8, 64, 256} }

// ExtendedConnScaleCounts is the hashed-mode sweep: with O(1) expected
// tag matching the registered population can grow far past the linear
// walk's practical ceiling. The linear (paper-faithful) sweep stays
// capped at 1024 — at 16k connections a 550 ns-per-descriptor walk per
// arrival stalls the receive processor past the senders' retry
// budgets, which is precisely the scaling wall the hashed mode removes.
func ExtendedConnScaleCounts() []int { return []int{8, 64, 256, 1024, 4096, 16384} }

// connScaleState is one server-side connection's request progress.
type connScaleState struct {
	c    sock.Conn
	need int
}

// connScale runs one data point: conns connections to a single-process
// evented echo server and reports the server poller's counters. Idle
// points (active false) have connScalePacers of the connections send
// requests while the rest sit registered, measuring the idle-population
// scan cost; active points have every connection pace requests,
// measuring dispatch throughput. Hashed points run the substrate NIC
// under the hashed demux cost model (nic.HashedConfig).
func connScale(transport cluster.Transport, conns int, active, hashed bool) ConnScalePoint {
	pacers, reqs := connScalePacers, connScaleReqs
	if active {
		pacers, reqs = conns, connScaleActiveReqs
	}
	pt := ConnScalePoint{Transport: transport.String(), Conns: conns, Active: active, Hashed: hashed}
	if pacers > conns {
		pacers = conns
	}
	clients := (conns + connScaleConnsPerClient - 1) / connScaleConnsPerClient
	if clients < 1 {
		clients = 1
	}
	pt.ClientNodes = clients
	cfg := cluster.Config{Nodes: 1 + clients, Transport: transport}
	if transport == cluster.TransportSubstrate {
		// Small credit windows keep the server's pre-posted descriptor
		// population (conns x credits) bounded at the high end of the
		// sweep; the pacer traffic is tiny, so throughput is unaffected.
		o := core.DefaultOptions()
		o.Credits = 4
		if conns > 1024 {
			// The extended sweep's server preposts conns x credits
			// descriptors; the default 8192-descriptor budget was sized
			// for the linear sweep's ceiling.
			o.DescriptorBudget = 6*conns + 4096
		}
		cfg.Substrate = &o
		if hashed {
			h := nic.HashedConfig()
			cfg.NIC = &h
		}
	}
	c := cluster.New(cfg)
	const port = 7007
	fail := func(err error) {
		if pt.Err == "" && err != nil {
			pt.Err = err.Error()
		}
	}

	c.Eng.Spawn("connscale-server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, port, conns)
		if err != nil {
			fail(err)
			return
		}
		lp := l.(sock.Pollable)
		po := sock.NewPoller(p.Engine(), "connscale")
		c.Nodes[0].Tel.ReplaceSource("poller", po.TelemetryStats)
		po.Register(lp, sock.PollIn|sock.PollErr, nil)
		server := po.Waiter("server")
		accepted, finished := 0, 0
		for finished < conns && pt.Err == "" {
			ev, _ := server.Wait(p, -1)
			if ev.Data == nil {
				for accepted < conns && lp.PollState()&sock.PollIn != 0 {
					cn, err := l.Accept(p)
					if err != nil {
						fail(err)
						break
					}
					accepted++
					po.Register(cn.(sock.Pollable),
						sock.PollIn|sock.PollErr,
						&connScaleState{c: cn, need: connScaleReqBytes})
				}
				if accepted == conns {
					po.Deregister(lp)
				}
				po.Done(lp)
				continue
			}
			st := ev.Data.(*connScaleState)
			for ev.Item.PollState()&(sock.PollIn|sock.PollErr) != 0 {
				n, _, err := st.c.Read(p, st.need)
				if err != nil || n == 0 {
					po.Deregister(ev.Item)
					st.c.Close(p)
					finished++
					break
				}
				st.need -= n
				if st.need > 0 {
					continue
				}
				if _, err := st.c.Write(p, connScaleReqBytes, "echo"); err != nil {
					po.Deregister(ev.Item)
					st.c.Close(p)
					finished++
					break
				}
				st.need = connScaleReqBytes
			}
			po.Done(ev.Item)
		}
		l.Close(p)
		pt.Waits = po.Waits
		pt.Delivered = po.Delivered
		pt.Scanned = po.Scanned
		po.Close()
		pt.Elapsed = p.Now().Sub(0)
	})

	// Clients: all conns dial (staggered so accepts keep pace with the
	// backlog), the pacers run their echo loops once everyone is up,
	// and every connection closes after the pacers drain. Above
	// connScaleConnsPerClient the dialers shard round-robin across the
	// client nodes; the aggregate arrival rate at the server is the
	// same one-dial-per-25µs the single-client sweep uses.
	dialed := sim.NewWaitGroup(c.Eng, "connscale.dialed")
	dialed.Add(conns)
	pacing := sim.NewWaitGroup(c.Eng, "connscale.pacing")
	pacing.Add(pacers)
	done := 0
	for i := 0; i < conns; i++ {
		i := i
		node := c.Nodes[1+i%clients]
		c.Eng.Spawn("connscale-client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+25*i) * sim.Microsecond)
			cn, err := node.Net.Dial(p, c.Addr(0), port)
			dialed.Done()
			if err != nil {
				fail(err)
				if i < pacers {
					pacing.Done()
				}
				return
			}
			if i < pacers {
				dialed.Wait(p) // full register population first
				for r := 0; r < reqs; r++ {
					if _, err := cn.Write(p, connScaleReqBytes, "ping"); err != nil {
						fail(err)
						break
					}
					if _, _, err := sock.ReadFull(p, cn, connScaleReqBytes); err != nil {
						fail(err)
						break
					}
					done++
				}
				pacing.Done()
			}
			pacing.Wait(p)
			cn.Close(p)
		})
	}
	c.Run(cluster.RunLimit)
	pt.Requests = done
	if pt.Err == "" && done != pacers*reqs {
		pt.Err = fmt.Sprintf("connscale: %d of %d echoes", done, pacers*reqs)
	}
	if pt.Waits > 0 {
		pt.ScannedPerWait = float64(pt.Scanned) / float64(pt.Waits)
	}
	if active && pt.Elapsed > 0 {
		pt.ReqPerSec = float64(pt.Requests) / pt.Elapsed.Seconds()
	}
	// Server-side demux lookup counters: charged tag-match work on the
	// substrate NIC, 4-tuple hash probes on the TCP stack.
	if sub := c.Nodes[0].Sub; sub != nil {
		pt.DemuxLookups = sub.EP.NIC.TagLookups.Value
		pt.DemuxWork = sub.EP.NIC.TagWalked.Value
	} else if st := c.Nodes[0].Stack; st != nil {
		pt.DemuxLookups, pt.DemuxWork = st.DemuxStats()
	}
	if pt.DemuxLookups > 0 {
		pt.DemuxCost = float64(pt.DemuxWork) / float64(pt.DemuxLookups)
	}
	return pt
}

// ConnScaleSweep runs connScale at every count on both stacks.
func ConnScaleSweep(counts []int, active, hashed bool) []ConnScalePoint {
	var out []ConnScalePoint
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		for _, n := range counts {
			out = append(out, connScale(tr, n, active, hashed))
		}
	}
	return out
}

// DescScalePoint is one raw-EMP tag-match scaling measurement.
type DescScalePoint struct {
	Descriptors int  `json:"descriptors"`
	Hashed      bool `json:"hashed"`
	// Lookups / Walked are the receiver NIC's tag-match counters over
	// the measured messages; MeanLookup = Walked / Lookups.
	Lookups    int64   `json:"lookups"`
	Walked     int64   `json:"walked"`
	MeanLookup float64 `json:"mean_lookup"`
	// MatchNs is the charged tag-match time per arriving message under
	// the active cost model (base + MeanLookup x per-step).
	MatchNs float64 `json:"match_ns"`
}

// DefaultDescScaleCounts spans the preposted populations of the raw
// microbench, reaching the quarter-million-descriptor regime the
// conn-level sweeps cannot (each substrate connection needs four tags,
// so conn counts stop at 16k; raw descriptors have no such budget).
func DefaultDescScaleCounts() []int { return []int{1024, 16384, 262144} }

// descScale measures worst-case tag matching against a cold preposted
// population: the receiver preposts n-1 descriptors on one tag, then
// serves iters messages on a different tag whose descriptor is always
// the last posted — the paper's linear walk examines all n descriptors
// per arrival, the hashed table probes exactly one bucket entry.
func descScale(n int, hashed bool, iters int) DescScalePoint {
	pt := DescScalePoint{Descriptors: n, Hashed: hashed}
	e := sim.NewEngine()
	sw := ethernet.NewSwitch(e)
	nicCfg := nic.DefaultConfig()
	if hashed {
		nicCfg = nic.HashedConfig()
	}
	epCfg := emp.DefaultEndpointConfig()
	epCfg.MaxDescriptors = 0 // the population under test IS the budget
	var eps [2]*emp.Endpoint
	for i := range eps {
		h := kernel.NewHost(e, "h", 4)
		nc := nic.New(e, "n", nicCfg)
		nc.Attach(sw)
		eps[i] = emp.NewEndpoint(e, h, nc, epCfg)
	}
	recvNIC := eps[1].NIC
	ready := sim.NewWaitGroup(e, "descscale.ready")
	ready.Add(1)
	e.Spawn("descscale-recv", func(p *sim.Proc) {
		for i := 0; i < n-1; i++ {
			eps[1].PostRecv(p, eps[0].Addr(), 1, 64, 0)
		}
		// Count only the measured matches, not the prepost phase.
		recvNIC.TagLookups.Value, recvNIC.TagWalked.Value = 0, 0
		ready.Done()
		for i := 0; i < iters; i++ {
			h := eps[1].PostRecv(p, eps[0].Addr(), 2, 64, 1)
			eps[1].WaitRecv(p, h)
		}
	})
	e.Spawn("descscale-send", func(p *sim.Proc) {
		ready.Wait(p)
		for i := 0; i < iters; i++ {
			eps[0].Send(p, eps[1].Addr(), 2, 64, nil, 2)
		}
	})
	e.RunUntil(sim.Time(cluster.RunLimit))
	pt.Lookups = recvNIC.TagLookups.Value
	pt.Walked = recvNIC.TagWalked.Value
	if pt.Lookups > 0 {
		pt.MeanLookup = float64(pt.Walked) / float64(pt.Lookups)
	}
	pt.MatchNs = float64(nic.TagMatchBase) + pt.MeanLookup*float64(nic.TagMatchPerDesc)
	return pt
}

// DescScaleSweep runs the raw tag-match microbench over both cost
// models at every population.
func DescScaleSweep(counts []int) []DescScalePoint {
	var out []DescScalePoint
	for _, hashed := range []bool{false, true} {
		for _, n := range counts {
			iters := 16
			if !hashed && n > 20000 {
				// A quarter-million-descriptor linear walk charges
				// ~144 ms of NIC time per message; a few arrivals make
				// the point.
				iters = 4
			}
			out = append(out, descScale(n, hashed, iters))
		}
	}
	return out
}

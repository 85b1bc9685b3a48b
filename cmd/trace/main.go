// Command trace runs a small scenario with protocol tracing enabled and
// streams every model event — EMP fragments, tag-match walks,
// unexpected-queue traffic, retransmissions, TCP segments, substrate
// connection management — to stdout with virtual timestamps. The
// fastest way to see exactly how the paper's machinery moves a message.
//
// Usage:
//
//	trace -scenario pingpong -transport substrate
//	trace -scenario pingpong -transport tcp
//	trace -scenario connect-race
//	trace -scenario lossy
//	trace -scenario chaos
//	trace -scenario drain
//	trace -scenario drain -flight 1:40000-0:80   # one connection's ring
//
// -flight CONN suppresses the event firehose and instead prints the
// named connection's flight-recorder ring after the run (pass "all" for
// every connection the run touched; connection ids are
// "addr:port-peeraddr:port" as listed when the flag's target is absent).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

func main() {
	scenario := flag.String("scenario", "pingpong", "pingpong, connect-race, lossy, chaos or drain")
	transport := flag.String("transport", "substrate", "substrate or tcp")
	msgSize := flag.Int("size", 64, "message size in bytes")
	flight := flag.String("flight", "", "print this connection's flight-recorder ring instead of the trace firehose (\"all\" for every connection)")
	flag.Parse()

	cfg := cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate}
	if *transport == "tcp" {
		cfg.Transport = cluster.TransportTCP
	}
	switch *scenario {
	case "lossy":
		cfg.Faults = &faults.Plan{Clauses: []faults.Clause{faults.Uniform(0.1, 0, 0, 0)}}
		cfg.Seed = 7
	case "chaos":
		// A randomized plan plus heavy uniform rates so a single
		// round trip shows drops, duplicates and FCS rejects.
		pl := faults.RandomPlan(7, 2, sim.Second)
		pl.Clauses = append(pl.Clauses, faults.Uniform(0.05, 0.05, 0.05, 0.05))
		cfg.Faults = pl
		cfg.Seed = 7
	case "drain":
		cfg.Nodes = 3
		cfg.Seed = 7
	}
	c := cluster.New(cfg)
	if *flight == "" {
		c.Eng.SetTrace(os.Stdout)
	}

	switch *scenario {
	case "pingpong", "lossy", "chaos":
		runPingPong(c, *msgSize)
	case "connect-race":
		runConnectRace(c, *msgSize)
	case "drain":
		runDrain(c, *msgSize)
	default:
		fmt.Fprintf(os.Stderr, "trace: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if *flight != "" {
		printFlights(c, *flight)
		printEngineCounts(c)
		return
	}
	fmt.Printf("--- %d trace events ---\n", c.Eng.TraceCount())
	printEngineCounts(c)
	if snap := c.TelemetrySnapshot(); snap.Sum(cluster.FaultKeys...) > 0 {
		fmt.Printf("fault stats: %s\n", cluster.FaultText(snap.Sum))
	}
	if blocked := c.Eng.BlockedProcs(); len(blocked) > 0 {
		fmt.Println("blocked processes at end of run:")
		for _, b := range blocked {
			fmt.Println(" ", b)
		}
	}
}

// printEngineCounts prints the engine's event, context-switch and wakeup
// totals, so comparing two traces also compares every event and switch
// the run made, including the ones that print no trace line.
func printEngineCounts(c *cluster.Cluster) {
	fmt.Printf("--- engine: %d events, %d switches, %d wakeups ---\n",
		c.Eng.Events(), c.Eng.Switches(), c.Eng.Wakeups())
}

// printFlights renders the requested connection's flight-recorder ring
// (or every ring with "all"). Rings live per node; ids are searched
// across all of them.
func printFlights(c *cluster.Cluster, want string) {
	printed := 0
	var known []string
	for _, n := range c.Nodes {
		for _, id := range n.Tel.FlightIDs() {
			known = append(known, id)
			if want != "all" && id != want {
				continue
			}
			rec := n.Tel.Flight(id)
			telemetry.FprintDump(os.Stdout, telemetry.Dump{
				Conn: id, Reason: "requested", Total: rec.Total(), Events: rec.Events(),
			})
			printed++
		}
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "trace: no flight recorder for %q; connections seen: %s\n",
			want, strings.Join(known, ", "))
		os.Exit(1)
	}
}

func runPingPong(c *cluster.Cluster, n int) {
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, _ := c.Nodes[0].Net.Listen(p, 80, 4)
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		if _, _, err := sock.ReadFull(p, conn, n); err == nil {
			conn.Write(p, n, nil)
		}
		conn.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			return
		}
		start := p.Now()
		conn.Write(p, n, nil)
		sock.ReadFull(p, conn, n)
		fmt.Printf("### round trip: %v\n", p.Now().Sub(start))
		conn.Close(p)
	})
	c.Run(10 * sim.Second)
}

// runConnectRace shows the paper's asynchronous-connect optimization:
// the client's data races its own connection request into the server's
// unexpected queue and is claimed when the accept posts descriptors.
func runConnectRace(c *cluster.Cluster, n int) {
	if c.Nodes[0].Sub == nil {
		fmt.Fprintln(os.Stderr, "trace: connect-race needs the substrate transport")
		os.Exit(2)
	}
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, _ := c.Nodes[0].Net.Listen(p, 80, 4)
		p.Sleep(400 * sim.Microsecond) // dawdle so the data must wait
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		sock.ReadFull(p, conn, n)
		conn.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			return
		}
		conn.Write(p, n, nil) // immediately: races the accept
		conn.Close(p)
	})
	c.Run(10 * sim.Second)
}

// runDrain shows graceful host quiesce: two clients hold mid-stream
// conversations with the server while it drains; a late dialer arrives
// after the drain begins and must be refused. The flight recorders
// capture shutdown-sent / peer-shutdown / refusal on each connection.
func runDrain(c *cluster.Cluster, n int) {
	const port = 80
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, port, 4)
		if err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			cn, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Eng.Spawn("handler", func(hp *sim.Proc) {
				for {
					got, _, err := cn.Read(hp, 64<<10)
					if err != nil || got == 0 {
						break
					}
				}
				cn.Close(hp)
			})
		}
	})
	for i := 0; i < 2; i++ {
		i := i
		c.Eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+20*i) * sim.Microsecond)
			cn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), port)
			if err != nil {
				return
			}
			cn.Write(p, n, nil)
			for {
				got, _, err := cn.Read(p, 64<<10)
				if err != nil || got == 0 {
					break
				}
			}
			cn.Close(p)
		})
	}
	c.Eng.Spawn("drainer", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		if err := c.Nodes[0].Drain(p, p.Now().Add(100*sim.Millisecond)); err != nil {
			fmt.Printf("### drain: %v\n", err)
		} else {
			fmt.Printf("### drain complete at %v\n", p.Now())
		}
	})
	c.Eng.Spawn("late-dialer", func(p *sim.Proc) {
		p.Sleep(8 * sim.Millisecond)
		cn, err := c.Nodes[2].Net.Dial(p, c.Addr(0), port)
		if err == nil {
			// Asynchronous connect: eager writes succeed on local credit
			// alone, so keep writing until the credits run out — the
			// blocked writer watches the ack channel and claims the
			// refusal there.
			if d, ok := cn.(sock.Deadliner); ok {
				d.SetDeadline(p.Now().Add(500 * sim.Millisecond))
			}
			for i := 0; i < 256 && err == nil; i++ {
				_, err = cn.Write(p, n, nil)
			}
		}
		if err != nil {
			fmt.Printf("### late dial refused: %v\n", err)
		} else {
			fmt.Printf("### late dial unexpectedly accepted\n")
		}
	})
	c.Run(10 * sim.Second)
}

package integration

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

// sessionCounter reads a "session"-layer counter off a node's registry.
func sessionCounter(n *cluster.Node, metric string) int64 {
	return n.Tel.Counter("session", metric).Value
}

// echoServer accepts one session and echoes everything it reads until
// EOF, reporting bytes echoed and the first error.
func echoServer(t *testing.T, c *cluster.Cluster, l sock.Listener, done *int64) {
	c.Eng.Spawn("echo-server", func(p *sim.Proc) {
		conn, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			n, objs, err := conn.Read(p, 64<<10)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if n == 0 {
				conn.Close(p)
				return
			}
			var obj any
			if len(objs) > 0 {
				obj = objs[len(objs)-1]
			}
			if _, err := conn.Write(p, n, obj); err != nil {
				t.Errorf("server write: %v", err)
				return
			}
			*done += int64(n)
		}
	})
}

// TestSessionEcho: the session layer is transparent on a healthy
// failover cluster — ping-pong with payload objects, clean EOF, clean
// audit.
func TestSessionEcho(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 3})
	scfg := sock.SessionConfig{Eng: c.Eng, Name: "echo", Tel: c.Nodes[0].Tel}

	var echoed int64
	c.Eng.Spawn("listen", func(p *sim.Proc) {
		subL, err := c.Nodes[0].Sub.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("sub listen: %v", err)
			return
		}
		tcpL, err := c.Nodes[0].Stack.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("tcp listen: %v", err)
			return
		}
		lcfg := scfg
		lcfg.Store = sock.NewSessionStore()
		echoServer(t, c, sock.NewSessionListener(lcfg, subL, tcpL), &echoed)
	})

	const rounds, chunk = 16, 2048
	okRounds := 0
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond)
		cfg := scfg
		cfg.Tel = c.Nodes[1].Tel
		cfg.Targets = c.Targets(1, 0, 80)
		s, err := sock.DialSession(p, cfg)
		if err != nil {
			t.Errorf("dial session: %v", err)
			return
		}
		for i := 0; i < rounds; i++ {
			if _, err := s.Write(p, chunk, i); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			_, objs, err := sock.ReadFull(p, s, chunk)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if len(objs) != 1 || objs[0].(int) != i {
				t.Errorf("round %d: echoed objs %v", i, objs)
				return
			}
			okRounds++
		}
		s.Close(p)
	})
	c.Run(5 * sim.Second)
	if okRounds != rounds {
		t.Fatalf("completed %d of %d rounds", okRounds, rounds)
	}
	if echoed != rounds*chunk {
		t.Fatalf("server echoed %d bytes, want %d", echoed, rounds*chunk)
	}
	if s := c.Targets(1, 0, 80); len(s) != 2 {
		t.Fatalf("failover cluster should expose 2 targets, got %d", len(s))
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Fatalf("audit: %v", rep.Findings)
	}
}

// TestSessionFailoverOnRefusedSubstrate: the server listens only on
// kernel TCP, so the substrate dial is refused and the session's dial
// policy must fall through to the TCP target on the first pass —
// counting one failover — while the application sees a working
// connection.
func TestSessionFailoverOnRefusedSubstrate(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 4})
	scfg := sock.SessionConfig{Eng: c.Eng, Name: "fo", Tel: c.Nodes[0].Tel}

	var echoed int64
	c.Eng.Spawn("listen", func(p *sim.Proc) {
		tcpL, err := c.Nodes[0].Stack.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("tcp listen: %v", err)
			return
		}
		lcfg := scfg
		lcfg.Store = sock.NewSessionStore()
		echoServer(t, c, sock.NewSessionListener(lcfg, tcpL), &echoed)
	})

	var got []byte
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond)
		cfg := scfg
		cfg.Tel = c.Nodes[1].Tel
		cfg.Targets = c.Targets(1, 0, 80)
		s, err := sock.DialSession(p, cfg)
		if err != nil {
			t.Errorf("dial session: %v", err)
			return
		}
		for i := 0; i < 8; i++ {
			if _, err := s.Write(p, 512, byte(i)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			_, objs, err := sock.ReadFull(p, s, 512)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, objs[0].(byte))
		}
		s.Close(p)
	})
	c.Run(5 * sim.Second)
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("echo order broken at %d: %v", i, got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("completed %d of 8 rounds", len(got))
	}
	if fo := sessionCounter(c.Nodes[1], "failovers"); fo < 1 {
		t.Fatalf("failovers = %d, want >= 1", fo)
	}
}

// TestSessionReconnectUnderWedge: the client's substrate NIC firmware
// wedges mid-stream. The watchdog must declare the transport Wedged and
// abort it, and the session must fail over to TCP and resume the byte
// stream exactly once — every payload object arrives in order, none
// duplicated, and the application never sees ErrReset.
func TestSessionReconnectUnderWedge(t *testing.T) {
	pl := &faults.Plan{NIC: []faults.NICClause{
		faults.FirmwareWedge(1, 4*sim.Millisecond, 400*sim.Millisecond),
	}}
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 7, Faults: pl})
	scfg := sock.SessionConfig{Eng: c.Eng, Name: "wedge", Tel: c.Nodes[0].Tel}

	const rounds, chunk = 40, 1024
	var gotObjs []int
	var gotBytes int
	var srvErr error
	c.Eng.Spawn("listen", func(p *sim.Proc) {
		subL, err := c.Nodes[0].Sub.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("sub listen: %v", err)
			return
		}
		tcpL, err := c.Nodes[0].Stack.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("tcp listen: %v", err)
			return
		}
		lcfg := scfg
		lcfg.Store = sock.NewSessionStore()
		l := sock.NewSessionListener(lcfg, subL, tcpL)
		conn, err := l.Accept(p)
		if err != nil {
			srvErr = err
			return
		}
		for {
			n, objs, err := conn.Read(p, 64<<10)
			if err != nil {
				srvErr = err
				return
			}
			if n == 0 {
				conn.Close(p)
				return
			}
			gotBytes += n
			for _, o := range objs {
				gotObjs = append(gotObjs, o.(int))
			}
		}
	})

	var cliErr error
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond)
		cfg := scfg
		cfg.Tel = c.Nodes[1].Tel
		cfg.Targets = c.Targets(1, 0, 80)
		s, err := sock.DialSession(p, cfg)
		if err != nil {
			cliErr = err
			return
		}
		for i := 0; i < rounds; i++ {
			if _, err := s.Write(p, chunk, i); err != nil {
				cliErr = fmt.Errorf("write %d: %w", i, err)
				return
			}
			p.Sleep(500 * sim.Microsecond)
		}
		s.Close(p)
	})
	c.Run(5 * sim.Second)
	if cliErr != nil {
		t.Fatalf("client: %v", cliErr)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if gotBytes != rounds*chunk {
		t.Fatalf("server received %d bytes, want exactly %d", gotBytes, rounds*chunk)
	}
	if len(gotObjs) != rounds {
		t.Fatalf("server received %d objects, want exactly %d (no loss, no duplication)", len(gotObjs), rounds)
	}
	for i, o := range gotObjs {
		if o != i {
			t.Fatalf("object order broken at %d: got %d", i, o)
		}
	}
	cli := c.Nodes[1]
	if rc := sessionCounter(cli, "reconnects") + sessionCounter(cli, "failovers"); rc < 1 {
		t.Fatalf("no reconnect or failover recorded (reconnects=%d failovers=%d watchdog=%d)",
			sessionCounter(cli, "reconnects"), sessionCounter(cli, "failovers"),
			sessionCounter(cli, "watchdog_aborts"))
	}
	if c.Nodes[1].Sub.EP.NIC.WedgeStalls.Value == 0 {
		t.Fatal("wedge fault never fired")
	}
}

// creditLossCluster builds a 2-node substrate cluster where the
// client's NIC loses most unexpected-queue deliveries (credit updates
// ride the UQ with the default UQAcks configuration) in an early
// window. A small credit count keeps grant traffic frequent so the
// loss has plenty of chances to bite. recovery turns on the
// credit-reconciliation sweep, with the rest of the recovery machinery.
func creditLossCluster(recovery bool, seed uint64) *cluster.Cluster {
	opts := core.DefaultOptions()
	opts.Recovery = recovery
	opts.Credits = 8
	pl := &faults.Plan{NIC: []faults.NICClause{
		faults.LostCreditUpdates(1, 0, 200*sim.Millisecond, 0.9),
	}}
	return cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Substrate: &opts,
		Seed:      seed,
		Faults:    pl,
	})
}

// creditLossTransfer streams bytes from node 1 to node 0 under the
// credit-loss plan and reports how many bytes landed. The writes are
// paced: a writer blocked on credits posts an on-demand ack descriptor
// that grants tag-match into, so only a writer that is NOT stalled
// receives them unsolicited on the unexpected queue — the delivery the
// fault plan can lose.
func creditLossTransfer(c *cluster.Cluster, total int) (got int, wrErr error) {
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for got < total {
			n, _, err := conn.Read(p, 64<<10)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
		conn.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			wrErr = err
			return
		}
		for sent := 0; sent < total; sent += 1024 {
			if _, err := conn.Write(p, 1024, nil); err != nil {
				wrErr = err
				return
			}
			// The pace must exceed the message+ack round trip: only then can
			// the grant that would unblock the writer's NEXT stall fly (and
			// be lost) before the stall posts its descriptor.
			p.Sleep(100 * sim.Microsecond)
		}
		// Wait for the server's close before closing: a keepalive or a
		// close sent to its closed end would park there for good.
		for {
			if n, _, err := conn.Read(p, 64); err != nil || n == 0 {
				break
			}
		}
		conn.Close(p)
	})
	c.Run(2 * sim.Second)
	return got, wrErr
}

// TestCreditReconcileRepairsLostGrants: with the reconciliation sweep
// on, a stream whose credit updates are being dropped at the NIC
// completes anyway — the stalled writer probes, the receiver answers
// with its cumulative grant total, and the drift heals. The audit must
// come back clean.
func TestCreditReconcileRepairsLostGrants(t *testing.T) {
	const total = 256 << 10
	c := creditLossCluster(true, 11)
	got, wrErr := creditLossTransfer(c, total)
	if wrErr != nil {
		t.Fatalf("writer: %v", wrErr)
	}
	if got != total {
		t.Fatalf("received %d of %d bytes", got, total)
	}
	if v := c.Nodes[1].Sub.CreditSyncs.Value; v == 0 {
		t.Fatal("no credit-sync probes sent — the fault never bit or the sweep is dead")
	}
	if v := c.Nodes[1].Sub.EP.NIC.UQLost.Value; v == 0 {
		t.Fatal("credit-update loss never fired")
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Fatalf("audit: %v", rep.Findings)
	}
}

// TestCreditLossWedgesWithoutReconcile is the control: the identical
// fault plan with the sweep disabled must NOT complete — the writer
// runs out of credits that no one will ever return. This proves the
// reconciliation sweep is load-bearing in the test above.
func TestCreditLossWedgesWithoutReconcile(t *testing.T) {
	const total = 256 << 10
	c := creditLossCluster(false, 11)
	got, wrErr := creditLossTransfer(c, total)
	if wrErr != nil {
		t.Fatalf("writer saw an error (want a silent wedge): %v", wrErr)
	}
	if got == total {
		t.Fatal("transfer completed without the reconciliation sweep — the control no longer proves anything")
	}
}

// TestNICFaultSmoke: each recoverable NIC fault kind fires its counter
// and the transfer still completes via the layer that absorbs it
// (doorbell watchdog re-ring, DMA stall wait, FCS-drop + EMP
// retransmit).
func TestNICFaultSmoke(t *testing.T) {
	cases := []struct {
		name    string
		clause  faults.NICClause
		counter func(c *cluster.Cluster) int64
	}{
		{"doorbell", faults.DoorbellDrops(1, 0, 50*sim.Millisecond, 0.3),
			func(c *cluster.Cluster) int64 { return c.Nodes[1].Sub.EP.NIC.DoorbellsDropped.Value }},
		{"dma-stall", faults.DMAStalls(1, 0, 50*sim.Millisecond, 0.3, 200*sim.Microsecond),
			func(c *cluster.Cluster) int64 { return c.Nodes[1].Sub.EP.NIC.DMAStalls.Value }},
		{"desc-flip", faults.DescFlips(1, 0, 50*sim.Millisecond, 0.2),
			func(c *cluster.Cluster) int64 { return c.Nodes[1].Sub.EP.NIC.DescFlips.Value }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pl := &faults.Plan{NIC: []faults.NICClause{tc.clause}}
			c := cluster.New(cluster.Config{
				Nodes:     2,
				Transport: cluster.TransportSubstrate,
				Seed:      13,
				Faults:    pl,
			})
			const total = 128 << 10
			got, wrErr := creditLossTransfer(c, total)
			if wrErr != nil {
				t.Fatalf("writer: %v", wrErr)
			}
			if got != total {
				t.Fatalf("received %d of %d bytes", got, total)
			}
			if tc.counter(c) == 0 {
				t.Fatalf("%s fault never fired", tc.name)
			}
			if rep := audit.Cluster(c); !rep.Clean() {
				t.Fatalf("audit: %v", rep.Findings)
			}
		})
	}
}

// TestKeepaliveStopsAtPeerClose: a Recovery client that writes, never
// reads and never closes stops probing once the server's close lands,
// though it never reads up to it — in a data descriptor or the holdback
// (DataStreaming) or in the unexpected queue (Datagram). A keepalive
// after that would park in the server's unexpected queue addressed to
// no live connection, which the audit reports as uq-stale.
func TestKeepaliveStopsAtPeerClose(t *testing.T) {
	for _, opts := range []core.Options{core.DefaultOptions(), core.DatagramOptions()} {
		t.Run(opts.Mode.String(), func(t *testing.T) {
			testKeepaliveStopsAtPeerClose(t, opts)
		})
	}
}

func testKeepaliveStopsAtPeerClose(t *testing.T, opts core.Options) {
	opts.Recovery = true
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Substrate: &opts,
		Seed:      5,
	})
	const total = 16 << 10
	got, atClose := 0, int64(-1)
	client := c.Nodes[1].Sub
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for got < total {
			n, _, err := conn.Read(p, 64<<10)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
		// Idle past the keepalive interval first, so the client has
		// probes to stop.
		p.Sleep(20 * sim.Millisecond)
		conn.Close(p)
		atClose = client.KeepalivesSent.Value
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for sent := 0; sent < total; sent += 1024 {
			if _, err := conn.Write(p, 1024, nil); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	})
	c.Run(sim.Second)
	if got != total {
		t.Fatalf("server read %d of %d bytes", got, total)
	}
	if atClose <= 0 {
		t.Fatalf("client sent %d keepalives while the server idled; the test proves nothing", atClose)
	}
	if n := client.KeepalivesSent.Value; n != atClose {
		t.Fatalf("client sent %d keepalives after the server's close, want 0", n-atClose)
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Fatalf("audit: %v", rep.Findings)
	}
}

package integration

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcpip"
)

// ringKinds flattens one flight ring into the set of event kinds it
// holds.
func ringKinds(c *cluster.Cluster, node int, ring string) map[string]bool {
	kinds := make(map[string]bool)
	for _, ev := range c.Nodes[node].Tel.Flight(ring).Events() {
		kinds[ev.Kind] = true
	}
	return kinds
}

// anyRingWith reports whether any flight ring on the node records an
// event of the given kind, returning the first such ring's id.
func anyRingWith(c *cluster.Cluster, node int, kind string) (string, bool) {
	for _, id := range c.Nodes[node].Tel.FlightIDs() {
		for _, ev := range c.Nodes[node].Tel.Flight(id).Events() {
			if ev.Kind == kind {
				return id, true
			}
		}
	}
	return "", false
}

// dialDownHost drives the downtime-window dial contract on a 2-node
// cluster whose node 0 reboots per the plan: a dial issued while the
// host is dark must fail with a typed error inside the transport's
// dial bound (never hang), and a later retry must land on the reborn
// incarnation's resurrected listener.
func dialDownHost(t *testing.T, c *cluster.Cluster, failBound sim.Duration) {
	t.Helper()
	boot := func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			return // a rebirth mid-listen is not this test's concern
		}
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Eng.Spawn("echo1", func(q *sim.Proc) {
				if n, objs, err := conn.Read(q, 64); err == nil && n > 0 {
					var obj any
					if len(objs) > 0 {
						obj = objs[len(objs)-1]
					}
					conn.Write(q, n, obj)
				}
				conn.Close(q)
			})
		}
	}
	c.SetBoot(0, boot)
	c.Eng.Spawn("boot0", boot)

	done := false
	c.Eng.Spawn("dialer", func(p *sim.Proc) {
		tg := c.Targets(1, 0, 80)[0]
		p.Sleep(10 * sim.Millisecond) // node 0 is dark [2ms, 32ms)
		start := p.Now()
		_, err := tg.Net.Dial(p, tg.Addr, tg.Port)
		elapsed := p.Now().Sub(start)
		if err == nil {
			t.Errorf("dial at a down host succeeded")
			return
		}
		if !errors.Is(err, sock.ErrTimeout) && !errors.Is(err, sock.ErrRefused) &&
			!errors.Is(err, sock.ErrReset) && !errors.Is(err, sock.ErrClosed) {
			t.Errorf("dial at a down host failed untyped: %v", err)
		}
		if elapsed > failBound {
			t.Errorf("dial at a down host took %v, bound %v", elapsed, failBound)
		}
		// Retry until the reborn incarnation's listener answers.
		for i := 0; i < 40; i++ {
			conn, err := tg.Net.Dial(p, tg.Addr, tg.Port)
			if err != nil {
				p.Sleep(5 * sim.Millisecond)
				continue
			}
			if _, err := conn.Write(p, 1, nil); err != nil {
				t.Errorf("post-rebirth write: %v", err)
			}
			if n, _, err := conn.Read(p, 64); err != nil || n != 1 {
				t.Errorf("post-rebirth echo: n=%d err=%v", n, err)
			}
			conn.Close(p)
			done = true
			return
		}
		t.Errorf("no dial succeeded after the host came back")
	})
	c.Run(2 * sim.Second)
	if !done && !t.Failed() {
		t.Fatalf("dialer never completed")
	}
}

// TestDialDownHostSubstrate: the substrate transport's downtime-window
// dial contract. The failover dial deadline (10 ms) bounds the typed
// failure.
func TestDialDownHostSubstrate(t *testing.T) {
	pl := &faults.Plan{Restarts: []faults.Restart{
		{Node: 0, At: 2 * sim.Millisecond, Downtime: 30 * sim.Millisecond}}}
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 11, Faults: pl})
	dialDownHost(t, c, 15*sim.Millisecond)
}

// TestDialDownHostTCP: the same contract over the kernel TCP stack,
// bounded by an explicit handshake timeout instead of SYN-retry
// exhaustion.
func TestDialDownHostTCP(t *testing.T) {
	pl := &faults.Plan{Restarts: []faults.Restart{
		{Node: 0, At: 2 * sim.Millisecond, Downtime: 30 * sim.Millisecond}}}
	tcfg := tcpip.DefaultStackConfig()
	tcfg.DialTimeout = 20 * sim.Millisecond
	c := cluster.New(cluster.Config{
		Nodes: 2, Transport: cluster.TransportTCP, TCP: &tcfg, Seed: 11, Faults: pl})
	dialDownHost(t, c, 25*sim.Millisecond)
}

// TestRestartFlightRecords: a crash-restart cycle must leave a legible
// trail in the flight recorder — "host-down" and "host-restart" in the
// rebooted node's host ring and in the rings of connections the outage
// cut, and "resume-reborn" in the session ring the reborn listener
// adopted.
func TestRestartFlightRecords(t *testing.T) {
	pl := &faults.Plan{Restarts: []faults.Restart{
		{Node: 0, At: 12 * sim.Millisecond, Downtime: 30 * sim.Millisecond}}}
	c := cluster.New(cluster.Config{Nodes: 3, Failover: true, Seed: 7, Faults: pl})
	cfg := apps.DefaultWebConfig(1024, 8)
	cfg.Clients = 2
	cfg.RequestsPerClient = 10
	cfg.Sessions = true
	cfg.Think = 8 * sim.Millisecond
	res := apps.RunWeb(c, cfg)
	if res.Err != nil {
		t.Fatalf("web workload failed: %v", res.Err)
	}

	host := ringKinds(c, 0, "node0/host")
	if !host["host-down"] || !host["host-restart"] {
		t.Errorf("node0/host ring missing restart cycle events: %v", host)
	}
	if _, ok := anyRingWith(c, 1, "host-down"); !ok {
		t.Errorf("no client-side ring recorded host-down")
	}
	if _, ok := anyRingWith(c, 1, "host-restart"); !ok {
		t.Errorf("no client-side ring recorded host-restart")
	}
	if id, ok := anyRingWith(c, 0, "resume-reborn"); !ok {
		t.Errorf("no server-side session ring recorded resume-reborn")
	} else if kinds := ringKinds(c, 0, id); !kinds["resume-reborn"] {
		t.Errorf("ring %s lost its resume-reborn event", id)
	}
}

// TestResumeRejectedStaleAfterReboot: a reborn listener must refuse —
// typed, recorded, never hanging — a reattach whose offset lies beyond
// the committed resume state. The server here echoes without ever
// committing (no Cork/Uncork bracket), so after the reboot the durable
// record still reads [0,0) while the client's receive offset has moved
// on: resume is impossible and the session must fail with
// ErrSessionResume on both sides.
func TestResumeRejectedStaleAfterReboot(t *testing.T) {
	pl := &faults.Plan{Restarts: []faults.Restart{
		{Node: 0, At: 5 * sim.Millisecond, Downtime: 20 * sim.Millisecond}}}
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 13, Faults: pl})

	boot := func(p *sim.Proc) {
		n := c.Nodes[0]
		subL, err := n.Sub.Listen(p, 80, 4)
		if err != nil {
			return
		}
		tcpL, err := n.Stack.Listen(p, 80, 4)
		if err != nil {
			return
		}
		scfg := sock.SessionConfig{Eng: c.Eng, Name: "echo", Tel: n.Tel,
			Store: n.Resume, Incarnation: uint64(n.Incarnation)}
		l := sock.NewSessionListener(scfg, subL, tcpL)
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Eng.Spawn("echo-uncommitted", func(q *sim.Proc) {
				for {
					n, objs, err := conn.Read(q, 64<<10)
					if err != nil || n == 0 {
						return
					}
					var obj any
					if len(objs) > 0 {
						obj = objs[len(objs)-1]
					}
					if _, err := conn.Write(q, n, obj); err != nil {
						return
					}
				}
			})
		}
	}
	c.SetBoot(0, boot)
	c.Eng.Spawn("boot0", boot)

	var clientErr error
	rounds := 0
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		cfg := sock.SessionConfig{Eng: c.Eng, Name: "echo", Tel: c.Nodes[1].Tel,
			Targets: c.Targets(1, 0, 80), Rounds: 10}
		s, err := sock.DialSession(p, cfg)
		if err != nil {
			clientErr = err
			return
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Write(p, 1024, nil); err != nil {
				clientErr = err
				return
			}
			got := 0
			for got < 1024 {
				n, _, err := s.Read(p, 1024-got)
				if err != nil {
					clientErr = err
					return
				}
				got += n
			}
			rounds++
			p.Sleep(2 * sim.Millisecond)
		}
	})
	c.Run(2 * sim.Second)

	if rounds == 0 {
		t.Fatalf("client never completed a round before the crash (clientErr=%v)", clientErr)
	}
	if clientErr == nil || clientErr.Error() != "sock: session resume refused" {
		t.Fatalf("client error = %v, want the refused resume", clientErr)
	}
	if got := sessionCounter(c.Nodes[0], "resumes_stale"); got == 0 {
		t.Errorf("server recorded no stale resume rejection")
	}
	if _, ok := anyRingWith(c, 0, "resume-rejected-stale"); !ok {
		t.Errorf("no server-side ring recorded resume-rejected-stale")
	}
	if _, ok := anyRingWith(c, 1, "resume-rejected-stale"); !ok {
		t.Errorf("no client-side ring recorded resume-rejected-stale")
	}
}

// TestCrashThenAuditThenRebirth: the leak auditor must account a dead
// incarnation cleanly — every descriptor the crash stranded is either
// reclaimed by the surviving peers' abort paths or attributed to the
// corpse, not reported as an application leak — and a reborn
// incarnation must start with a clean slate.
func TestCrashThenAuditThenRebirth(t *testing.T) {
	// Node 0 dies at 8 ms and stays dark past the first run's 500 ms
	// limit, so the audit sees the dead incarnation; the second run
	// reaches the rebirth.
	pl := &faults.Plan{Restarts: []faults.Restart{{Node: 0, At: 8 * sim.Millisecond, Downtime: 500 * sim.Millisecond}}}
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 9, Faults: pl})

	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Sub.Listen(p, 80, 4)
		if err != nil {
			return
		}
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Eng.Spawn("srv-echo", func(q *sim.Proc) {
				for {
					n, objs, err := conn.Read(q, 64<<10)
					if err != nil || n == 0 {
						return
					}
					var obj any
					if len(objs) > 0 {
						obj = objs[len(objs)-1]
					}
					if _, err := conn.Write(q, n, obj); err != nil {
						return
					}
				}
			})
		}
	})

	sawReset := false
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		conn, err := c.Nodes[1].Sub.Dial(p, c.Nodes[0].Sub.Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			if _, err := conn.Write(p, 512, nil); err != nil {
				sawReset = true
				break
			}
			if _, _, err := conn.Read(p, 512); err != nil {
				sawReset = true
				break
			}
			p.Sleep(1 * sim.Millisecond)
		}
		conn.Close(p)
	})

	c.Run(500 * sim.Millisecond)

	if !sawReset {
		t.Fatalf("client never observed the crash")
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Errorf("audit after crash: %d finding(s): %v", len(rep.Findings), rep.Findings)
	}

	c.Run(600 * sim.Millisecond)
	if got := c.Nodes[0].Incarnation; got != 2 {
		t.Errorf("incarnation after rebirth = %d, want 2", got)
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Errorf("audit after rebirth: %d finding(s): %v", len(rep.Findings), rep.Findings)
	}
}

// TestRebirthReplacesLayerCounters: after a crash–restart, node 0's
// registry must publish the reborn incarnation's substrate, EMP and TCP
// counters, not the sum of both incarnations. Both incarnations carry
// traffic on both transports, so registration that appended instead of
// replacing would show in every checked key. The host survives the
// restart, so its kernel counters keep counting across incarnations.
func TestRebirthReplacesLayerCounters(t *testing.T) {
	pl := &faults.Plan{Restarts: []faults.Restart{
		{Node: 0, At: 10 * sim.Millisecond, Downtime: 20 * sim.Millisecond}}}
	c := cluster.New(cluster.Config{Nodes: 2, Failover: true, Seed: 5, Faults: pl})
	boot := func(p *sim.Proc) {
		n := c.Nodes[0]
		for _, net := range []sock.Network{n.Sub, n.Stack} {
			l, err := net.Listen(p, 80, 4)
			if err != nil {
				return
			}
			c.Eng.Spawn("echo-accept", func(q *sim.Proc) {
				for {
					conn, err := l.Accept(q)
					if err != nil {
						return
					}
					if n, _, err := conn.Read(q, 64); err == nil && n > 0 {
						conn.Write(q, n, nil)
					}
					conn.Close(q)
				}
			})
		}
	}
	c.SetBoot(0, boot)
	c.Eng.Spawn("boot0", boot)

	// echoAll exchanges one byte with node 0 over every transport,
	// retrying while the reborn listeners come up.
	echoAll := func(p *sim.Proc) {
		for _, tg := range c.Targets(1, 0, 80) {
			for try := 0; ; try++ {
				conn, err := tg.Net.Dial(p, tg.Addr, tg.Port)
				if err == nil {
					_, err = conn.Write(p, 1, nil)
					if err == nil {
						_, _, err = conn.Read(p, 64)
					}
					conn.Close(p)
				}
				if err == nil {
					break
				}
				if try == 20 {
					t.Errorf("%s echo: %v", tg.Name, err)
					return
				}
				p.Sleep(5 * sim.Millisecond)
			}
		}
	}
	var dead *cluster.Node
	var deadSyscalls int64
	c.Eng.Spawn("client", func(p *sim.Proc) {
		echoAll(p)
		n := *c.Nodes[0]
		dead = &n
		deadSyscalls = n.Host.Syscalls.Value
		p.Sleep(50 * sim.Millisecond) // node 0 is dark [10ms, 30ms)
		echoAll(p)
	})
	c.Run(2 * sim.Second)

	n := c.Nodes[0]
	if dead == nil || n.Incarnation != 2 {
		t.Fatalf("node 0 at incarnation %d, want a completed restart", n.Incarnation)
	}
	got := map[string]int64{}
	for _, m := range n.Tel.Snapshot().Counters {
		got[m.Layer+"/"+m.Metric] = m.Value
	}
	for _, k := range []struct {
		key        string
		dead, live int64
	}{
		{"core/msgs_sent", dead.Sub.MsgsSent.Value, n.Sub.MsgsSent.Value},
		{"emp/sends_posted", dead.Sub.EP.SendsPosted.Value, n.Sub.EP.SendsPosted.Value},
		{"tcp/segs_out", dead.Stack.SegsOut.Value, n.Stack.SegsOut.Value},
	} {
		if k.dead == 0 || k.live == 0 {
			t.Errorf("%s: dead incarnation %d, reborn %d; want traffic on both", k.key, k.dead, k.live)
		}
		if got[k.key] != k.live {
			t.Errorf("%s = %d, want the reborn incarnation's %d (dead one had %d)", k.key, got[k.key], k.live, k.dead)
		}
	}
	if got["node/incarnation"] != 2 {
		t.Errorf("node/incarnation = %d, want 2", got["node/incarnation"])
	}
	if sc := got["kernel/syscalls"]; deadSyscalls == 0 || sc <= deadSyscalls || sc != n.Host.Syscalls.Value {
		t.Errorf("kernel/syscalls = %d, want the host's %d, above the %d counted before the restart",
			sc, n.Host.Syscalls.Value, deadSyscalls)
	}
}

package integration

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

// chaosSeeds is how many independent randomized plans each chaos test
// runs; every plan is a pure function of its seed, so a failure
// reproduces by rerunning that seed alone.
const chaosSeeds = 5

// chaosFailureBound mirrors core's failure-detection bound: the EMP
// retry budget (40 timeouts at up to the 5 ms RTO cap each) plus slack.
const chaosFailureBound = 500 * sim.Millisecond

// isolate drops all traffic to and from node during [from, until), as a
// link down or a dead switch port does.
func isolate(node int, from, until sim.Duration) []faults.Clause {
	return []faults.Clause{
		{From: from, Until: until, Src: node, Dst: faults.Any, Partition: true},
		{From: from, Until: until, Src: faults.Any, Dst: node, Partition: true},
	}
}

// checkSubstrateLeaks asserts that every surviving substrate node has
// drained its socket table, unposted every descriptor (§5.3), and —
// after purging stale unexpected-queue entries — holds no orphaned
// messages. The host-wide resource auditor then cross-checks every pool
// gauge and attribution it knows about.
func checkSubstrateLeaks(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for i, n := range c.Nodes {
		if n.Sub == nil || n.Sub.Dead() {
			continue
		}
		if k := n.Sub.ActiveSockets(); k != 0 {
			t.Errorf("node %d leaked %d active sockets", i, k)
		}
		if k := n.Sub.EP.PrepostedDescriptors(); k != 0 {
			t.Errorf("node %d leaked %d preposted descriptors", i, k)
		}
		n.Sub.PurgeStale()
		if k := n.Sub.EP.UnexpectedQueued(); k != 0 {
			t.Errorf("node %d leaked %d unexpected-queue entries", i, k)
		}
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		t.Errorf("resource audit:\n%s", rep)
	}
}

// TestChaosFTPUnderRandomPlans runs the FTP transfer over the substrate
// under five independent randomized fault plans (low-grade uniform loss,
// duplication, corruption and reordering plus windowed bursts) and
// requires byte-exact delivery every time. The FCS counters prove the
// corruption path fired and that no corrupted frame reached EMP.
func TestChaosFTPUnderRandomPlans(t *testing.T) {
	const fileSize = 1 << 20
	total := map[string]int64{}
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		pl := faults.RandomPlan(seed, 2, 2*sim.Second)
		c := cluster.New(cluster.Config{
			Nodes:     2,
			Transport: cluster.TransportSubstrate,
			Seed:      seed,
			Faults:    pl,
		})
		res := apps.RunFTP(c, fileSize)
		if res.Err != nil {
			t.Fatalf("seed %d: ftp under chaos: %v", seed, res.Err)
		}
		if size, _ := c.Nodes[1].FS.Stat("copy.bin"); size != fileSize {
			t.Fatalf("seed %d: file corrupted: %d of %d bytes", seed, size, fileSize)
		}
		if res.Elapsed > 60*sim.Second {
			t.Fatalf("seed %d: transfer took %v, recovery unbounded", seed, res.Elapsed)
		}
		snap := c.TelemetrySnapshot()
		for _, k := range cluster.FaultKeys {
			total[k] += snap.Sum(k)
		}
		if n := snap.Sum("switch/fault_corruptions"); n > 0 && snap.Sum("nic/fcs_errors") == 0 {
			t.Fatalf("seed %d: %d frames corrupted but none dropped by FCS", seed, n)
		}
		checkSubstrateLeaks(t, c)
	}
	// Across five plans every injection mechanism must have fired.
	for _, k := range []string{"switch/fault_drops", "switch/fault_dups", "switch/fault_corruptions", "switch/fault_reorders"} {
		if total[k] == 0 {
			t.Fatalf("fault coverage incomplete across seeds: %v", total)
		}
	}
}

// TestChaosKVStoreOverTCPUnderRandomPlans drives the kv workload
// through the kernel stack's full recovery machinery under randomized
// plans; the checksum-drop counter proves corrupted segments were
// rejected before reaching TCP payload.
func TestChaosKVStoreOverTCPUnderRandomPlans(t *testing.T) {
	var corruptions, checksumDrops int64
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		pl := faults.RandomPlan(seed, 4, sim.Second)
		c := cluster.New(cluster.Config{
			Nodes:     4,
			Transport: cluster.TransportTCP,
			Seed:      seed,
			Faults:    pl,
		})
		cfg := apps.DefaultKVConfig(1024)
		cfg.OpsPerClient = 25
		res := apps.RunKVStore(c, cfg)
		if res.Err != nil {
			t.Fatalf("seed %d: kv under chaos: %v", seed, res.Err)
		}
		if want := cfg.Clients * cfg.OpsPerClient; res.Ops != want {
			t.Fatalf("seed %d: ops = %d, want %d", seed, res.Ops, want)
		}
		snap := c.TelemetrySnapshot()
		corruptions += snap.Sum("switch/fault_corruptions")
		checksumDrops += snap.Sum("tcp/checksum_drops")
	}
	if corruptions == 0 {
		t.Fatal("no frames corrupted across seeds; plan generation broken")
	}
	if checksumDrops == 0 {
		t.Fatal("corrupted frames reached TCP without a checksum drop")
	}
}

// TestChaosWebSurvivesLinkFlaps runs the web workload while one client's
// link flaps repeatedly; each outage is shorter than the EMP retry
// budget, so every request must still complete.
func TestChaosWebSurvivesLinkFlaps(t *testing.T) {
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		pl := &faults.Plan{Clauses: []faults.Clause{
			faults.Uniform(0.002, 0.002, 0.002, 0.002),
		}}
		// Node 2 (a client) loses its link for 300 us once per 1.5 ms,
		// six times, starting while requests are in flight — each outage
		// is well inside the ~200 ms EMP retry budget.
		for i := 0; i < 6; i++ {
			start := 500*sim.Microsecond + sim.Duration(i)*1500*sim.Microsecond
			pl.Clauses = append(pl.Clauses, isolate(2, start, start+300*sim.Microsecond)...)
		}
		c := cluster.New(cluster.Config{
			Nodes:     4,
			Transport: cluster.TransportSubstrate,
			Seed:      seed,
			Faults:    pl,
		})
		res := apps.RunWeb(c, apps.DefaultWebConfig(4096, 8))
		if res.Err != nil {
			t.Fatalf("seed %d: web under flaps: %v", seed, res.Err)
		}
		if want := 3 * 24; res.Requests != want {
			t.Fatalf("seed %d: %d requests completed, want %d", seed, res.Requests, want)
		}
		if c.TelemetrySnapshot().Sum("switch/fault_partition_drops") == 0 {
			t.Fatalf("seed %d: flap windows never dropped a frame", seed)
		}
		checkSubstrateLeaks(t, c)
	}
}

// TestChaosCloseDuringFaults is the close-during-fault matrix: under an
// independent randomized fault plan per seed (loss, duplication,
// corruption, reordering), a client linger-closes mid-plan and a second
// pair runs the half-close handshake. Acked data is never lost — the
// server's byte count matches what the writer sent — the close resolves
// within the linger bound, and nothing leaks.
func TestChaosCloseDuringFaults(t *testing.T) {
	const payload = 128 << 10
	const linger = 2 * sim.Second
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		pl := faults.RandomPlan(seed, 2, 2*sim.Second)
		opts := core.DefaultOptions()
		opts.Linger = linger
		c := cluster.New(cluster.Config{
			Nodes:     2,
			Transport: cluster.TransportSubstrate,
			Seed:      seed,
			Faults:    pl,
			Substrate: &opts,
		})
		lingerGot, halfGot, echoGot := 0, 0, 0
		var closeErr error
		var closeTook sim.Duration
		c.Eng.Spawn("server", func(p *sim.Proc) {
			l, err := c.Nodes[0].Net.Listen(p, 80, 4)
			if err != nil {
				t.Errorf("seed %d: listen: %v", seed, err)
				return
			}
			for k := 0; k < 2; k++ {
				conn, err := l.Accept(p)
				if err != nil {
					t.Errorf("seed %d: accept: %v", seed, err)
					return
				}
				c.Eng.Spawn("chaos-close-handler", func(hp *sim.Proc) {
					got := 0
					for {
						n, _, err := conn.Read(hp, 64<<10)
						if err != nil {
							t.Errorf("seed %d: server read: %v", seed, err)
							break
						}
						if n == 0 {
							break
						}
						got += n
					}
					// The half-close client sends half the payload and
					// expects it echoed; the linger client sends it all
					// and expects nothing back.
					if got == payload/2 {
						halfGot = got
						if _, err := conn.Write(hp, got, "echo"); err != nil {
							t.Errorf("seed %d: echo write: %v", seed, err)
						}
					} else {
						lingerGot = got
					}
					conn.Close(hp)
				})
			}
			l.Close(p)
		})
		c.Eng.Spawn("linger-client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("seed %d: dial: %v", seed, err)
				return
			}
			for sent := 0; sent < payload; sent += 8 << 10 {
				if _, err := conn.Write(p, 8<<10, nil); err != nil {
					t.Errorf("seed %d: write: %v", seed, err)
					return
				}
			}
			start := p.Now()
			closeErr = conn.Close(p)
			closeTook = p.Now().Sub(start)
		})
		c.Eng.Spawn("halfclose-client", func(p *sim.Proc) {
			p.Sleep(40 * sim.Microsecond)
			conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("seed %d: dial: %v", seed, err)
				return
			}
			for sent := 0; sent < payload/2; sent += 8 << 10 {
				if _, err := conn.Write(p, 8<<10, nil); err != nil {
					t.Errorf("seed %d: write: %v", seed, err)
					return
				}
			}
			if err := conn.(sock.Closer).CloseWrite(p); err != nil {
				t.Errorf("seed %d: CloseWrite under faults: %v", seed, err)
			}
			for {
				n, _, err := conn.Read(p, 64<<10)
				if err != nil {
					t.Errorf("seed %d: client read: %v", seed, err)
					break
				}
				if n == 0 {
					break
				}
				echoGot += n
			}
			conn.Close(p)
		})
		c.Run(30 * sim.Second)
		if closeErr != nil {
			t.Fatalf("seed %d: linger close under faults: %v", seed, closeErr)
		}
		if closeTook > linger+chaosFailureBound {
			t.Fatalf("seed %d: close took %v, bound %v", seed, closeTook, linger+chaosFailureBound)
		}
		if lingerGot != payload {
			t.Fatalf("seed %d: linger stream delivered %d of %d bytes", seed, lingerGot, payload)
		}
		if halfGot != payload/2 || echoGot != payload/2 {
			t.Fatalf("seed %d: half-close pair moved %d/%d bytes, want %d each",
				seed, halfGot, echoGot, payload/2)
		}
		checkSubstrateLeaks(t, c)
	}
}

// TestChaosPeerCrashMidStream crashes the receiving node mid-transfer —
// through the cluster's fault-plan scheduling, with corruption and
// reordering also active — and requires the surviving writer to observe
// sock.ErrReset within the retry-budget bound, leaking nothing.
func TestChaosPeerCrashMidStream(t *testing.T) {
	const killAt = 20 * sim.Millisecond
	pl := &faults.Plan{
		Clauses: []faults.Clause{faults.Uniform(0.002, 0.002, 0.005, 0.01)},
	}
	pl.Crashes = append(pl.Crashes, faults.CrashAt(0, killAt))
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Seed:      11,
		Faults:    pl,
	})
	var wrErr error
	var errAt sim.Time
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return // crashed while accepting
		}
		for {
			if _, _, err := conn.Read(p, 1<<20); err != nil {
				return
			}
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			if _, err := conn.Write(p, 8<<10, nil); err != nil {
				wrErr, errAt = err, p.Now()
				return
			}
		}
	})
	c.Run(2 * sim.Second)

	if !c.Nodes[0].Sub.Dead() {
		t.Fatal("crash schedule never fired")
	}
	if wrErr != sock.ErrReset {
		t.Fatalf("write to crashed peer returned %v, want sock.ErrReset", wrErr)
	}
	if d := sim.Duration(errAt) - killAt; d > chaosFailureBound {
		t.Fatalf("failure detected %v after the crash, bound %v", d, chaosFailureBound)
	}
	checkSubstrateLeaks(t, c)
}

// TestChaosPartitionExhaustsRetryBudget isolates the server's switch
// port for longer than the EMP retry budget: the writer on the far side
// must fail with sock.ErrReset while the partition holds.
func TestChaosPartitionExhaustsRetryBudget(t *testing.T) {
	const cutAt = 10 * sim.Millisecond
	pl := &faults.Plan{Clauses: isolate(0, cutAt, 800*sim.Millisecond)}
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Seed:      13,
		Faults:    pl,
	})
	var wrErr error
	var errAt sim.Time
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			if _, _, err := conn.Read(p, 1<<20); err != nil {
				return
			}
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			if _, err := conn.Write(p, 8<<10, nil); err != nil {
				wrErr, errAt = err, p.Now()
				return
			}
		}
	})
	c.Run(2 * sim.Second)

	if wrErr != sock.ErrReset {
		t.Fatalf("write across partition returned %v, want sock.ErrReset", wrErr)
	}
	if d := sim.Duration(errAt) - cutAt; d > chaosFailureBound {
		t.Fatalf("failure detected %v after the cut, bound %v", d, chaosFailureBound)
	}
	if c.TelemetrySnapshot().Sum("switch/fault_partition_drops") == 0 {
		t.Fatal("partition never dropped a frame")
	}
	// The writer's side must have cleaned up despite the peer being
	// unreachable (abort path: reclaim without the close handshake).
	if k := c.Nodes[1].Sub.ActiveSockets(); k != 0 {
		t.Fatalf("writer leaked %d sockets", k)
	}
	if k := c.Nodes[1].Sub.EP.PrepostedDescriptors(); k != 0 {
		t.Fatalf("writer leaked %d descriptors", k)
	}
}

package integration

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
)

// dupPlan delivers every forwarded frame twice with the given
// probability.
func dupPlan(rate float64) *faults.Plan {
	return &faults.Plan{Clauses: []faults.Clause{faults.Uniform(0, rate, 0, 0)}}
}

// TestSubstrateSurvivesDuplication: duplicated frames must be suppressed
// by EMP's completed-message and duplicate-fragment handling — exactly
// once delivery at the substrate level.
func TestSubstrateSurvivesDuplication(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Faults:    dupPlan(0.1),
		Seed:      5,
	})
	var objs []any
	gotN := 0
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
		for gotN < 20*1024 {
			n, o, err := conn.Read(p, 64<<10)
			if err != nil {
				t.Errorf("read after %d bytes: %v", gotN, err)
				return
			}
			if n == 0 {
				break
			}
			gotN += n
			objs = append(objs, o...)
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			if _, err := conn.Write(p, 1024, i); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	c.Run(30 * sim.Second)
	if c.TelemetrySnapshot().Sum("switch/fault_dups") == 0 {
		t.Fatal("duplication injection did not fire")
	}
	if gotN != 20*1024 {
		t.Fatalf("received %d bytes, want exactly %d (no duplicate delivery)", gotN, 20*1024)
	}
	if len(objs) != 20 {
		t.Fatalf("received %d objects, want exactly 20", len(objs))
	}
	for i, o := range objs {
		if o.(int) != i {
			t.Fatalf("object order broken at %d: %v", i, o)
		}
	}
}

// TestTCPSurvivesDuplication: duplicate segments fall outside the
// in-order window and are dropped with a duplicate ack; the byte stream
// must be delivered exactly once.
func TestTCPSurvivesDuplication(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportTCP,
		Faults:    dupPlan(0.05),
		Seed:      9,
	})
	const total = 1 << 20
	got := 0
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
			if err != nil {
				t.Errorf("read after %d bytes: %v", got, err)
				return
			}
			if n == 0 {
				break
			}
			got += n
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for sent := 0; sent < total; sent += 64 << 10 {
			if _, err := conn.Write(p, 64<<10, nil); err != nil {
				t.Errorf("write at %d: %v", sent, err)
				return
			}
		}
	})
	c.Run(60 * sim.Second)
	if got != total {
		t.Fatalf("received %d bytes, want exactly %d", got, total)
	}
	if c.TelemetrySnapshot().Sum("switch/fault_dups") == 0 {
		t.Fatal("duplication injection did not fire")
	}
}

// TestCombinedLossAndDuplication stresses both fault paths at once
// through a full application.
func TestCombinedLossAndDuplication(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Faults:    &faults.Plan{Clauses: []faults.Clause{faults.Uniform(0.01, 0.02, 0, 0)}},
		Seed:      77,
	})
	res := apps.RunFTP(c, 4<<20)
	if res.Err != nil {
		t.Fatalf("ftp under loss+duplication: %v", res.Err)
	}
	if size, _ := c.Nodes[1].FS.Stat("copy.bin"); size != 4<<20 {
		t.Fatalf("file corrupted: %d bytes", size)
	}
}

// TestKVStoreOverLossyTCP drives the data-center workload through the
// kernel stack's full recovery machinery.
func TestKVStoreOverLossyTCP(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     4,
		Transport: cluster.TransportTCP,
		Faults:    lossyPlan(0.005),
		Seed:      3,
	})
	cfg := apps.DefaultKVConfig(1024)
	cfg.OpsPerClient = 20
	res := apps.RunKVStore(c, cfg)
	if res.Err != nil {
		t.Fatalf("kv over lossy tcp: %v", res.Err)
	}
	if res.Ops != 60 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

// TestPollerUnderChurnDoesNotMissWakeups hammers the edge-triggered
// poller with many short-lived readable events: every arrival edge must
// produce a wakeup, and the drain-until-not-readable discipline must
// never strand bytes.
func TestPollerUnderChurnDoesNotMissWakeups(t *testing.T) {
	c := cluster.NewSubstrate(2, nil)
	served := 0
	const rounds = 40
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
		po := sock.NewPoller(c.Eng, "churn")
		defer po.Close()
		po.Register(conn.(sock.Pollable), sock.PollIn|sock.PollErr, nil)
		w := po.Waiter("server")
		got := 0
		for got < rounds*100 {
			if _, ok := w.Wait(p, 100*sim.Millisecond); !ok {
				return // timed out: a wakeup was missed
			}
			// Edge-triggered: drain until the socket stops being readable.
			for conn.(sock.Pollable).PollState()&(sock.PollIn|sock.PollErr) != 0 {
				n, _, err := conn.Read(p, 4096)
				if err != nil || n == 0 {
					return
				}
				got += n
			}
			po.Done(conn.(sock.Pollable))
		}
		served = got / 100
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < rounds; i++ {
			if _, err := conn.Write(p, 100, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			p.Sleep(200 * sim.Microsecond)
		}
	})
	c.Run(60 * sim.Second)
	if served != rounds {
		t.Fatalf("select served %d/%d rounds", served, rounds)
	}
}

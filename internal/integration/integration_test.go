// Package integration runs whole-stack scenarios: applications over the
// substrate and the kernel stack on shared and lossy fabrics, mixed
// protocol traffic, and end-to-end determinism.
package integration

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// lossyPlan drops every forwarded frame with the given probability.
func lossyPlan(rate float64) *faults.Plan {
	return &faults.Plan{Clauses: []faults.Clause{faults.Uniform(rate, 0, 0, 0)}}
}

func TestFTPOverLossyFabric(t *testing.T) {
	// The whole application stack — fd table, substrate, EMP
	// reliability — must deliver a bit-exact file size despite frame
	// loss.
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		Faults:    lossyPlan(0.01),
		Seed:      41,
	})
	res := apps.RunFTP(c, 8<<20)
	if res.Err != nil {
		t.Fatalf("ftp over lossy fabric: %v", res.Err)
	}
	if size, ok := c.Nodes[1].FS.Stat("copy.bin"); !ok || size != 8<<20 {
		t.Fatalf("client copy = %d bytes", size)
	}
	// Loss must actually have been exercised.
	if c.TelemetrySnapshot().Sum("switch/fault_drops") == 0 {
		t.Fatal("loss injection did not fire")
	}
}

func TestWebOverLossyFabricTCP(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:     4,
		Transport: cluster.TransportTCP,
		Faults:    lossyPlan(0.005),
		Seed:      13,
	})
	cfg := apps.DefaultWebConfig(1024, 1)
	cfg.RequestsPerClient = 8
	res := apps.RunWeb(c, cfg)
	if res.Err != nil {
		t.Fatalf("web over lossy TCP: %v", res.Err)
	}
	if res.Requests != 24 {
		t.Fatalf("completed %d/24 requests", res.Requests)
	}
}

func TestMixedProtocolFabric(t *testing.T) {
	// EMP endpoints and kernel TCP stacks share one switch: each
	// protocol must ignore the other's frames and both must work.
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng)

	// Two TCP hosts.
	var stacks [2]*tcpip.Stack
	for i := range stacks {
		h := kernel.NewHost(eng, "tcp-host", 4)
		stacks[i] = tcpip.NewStackOnPort(eng, h, sw.Attach(nil), telemetry.New(), tcpip.DefaultStackConfig())
	}
	// Two substrate hosts on the same fabric.
	var subs [2]*core.Substrate
	for i := range subs {
		h := kernel.NewHost(eng, "emp-host", 4)
		n := nic.New(eng, "nic", nic.DefaultConfig())
		n.Attach(sw)
		subs[i] = core.New(eng, h, n, telemetry.New(), core.DefaultOptions())
	}

	tcpOK, subOK := false, false
	eng.Spawn("tcp-server", func(p *sim.Proc) {
		l, _ := stacks[0].Listen(p, 80, 4)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		if n, _, _ := sock.ReadFull(p, c, 5000); n == 5000 {
			tcpOK = true
		}
	})
	eng.Spawn("tcp-client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := stacks[1].Dial(p, stacks[0].Addr(), 80)
		if err != nil {
			return
		}
		c.Write(p, 5000, nil)
	})
	eng.Spawn("sub-server", func(p *sim.Proc) {
		l, _ := subs[0].Listen(p, 80, 4)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		if n, _, _ := sock.ReadFull(p, c, 5000); n == 5000 {
			subOK = true
		}
	})
	eng.Spawn("sub-client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := subs[1].Dial(p, subs[0].Addr(), 80)
		if err != nil {
			return
		}
		c.Write(p, 5000, nil)
	})
	eng.RunUntil(sim.Time(10 * sim.Second))
	if !tcpOK || !subOK {
		t.Fatalf("mixed fabric: tcp=%v substrate=%v", tcpOK, subOK)
	}
}

func TestWholeAppDeterminism(t *testing.T) {
	run := func() (sim.Duration, float64) {
		c := cluster.New(cluster.Config{
			Nodes:     4,
			Transport: cluster.TransportSubstrate,
			Faults:    lossyPlan(0.01),
			Seed:      99,
		})
		web := apps.RunWeb(c, apps.DefaultWebConfig(1024, 1))
		c2 := cluster.New(cluster.Config{
			Nodes:     2,
			Transport: cluster.TransportSubstrate,
			Faults:    lossyPlan(0.01),
			Seed:      99,
		})
		ftp := apps.RunFTP(c2, 4<<20)
		return web.AvgResponse, ftp.Mbps()
	}
	w1, f1 := run()
	w2, f2 := run()
	if w1 != w2 || f1 != f2 {
		t.Fatalf("replay diverged: web %v/%v ftp %v/%v", w1, w2, f1, f2)
	}
}

func TestFdTableDrivesWholePipelineOverTCP(t *testing.T) {
	// The fd-tracking layer must work identically over the kernel
	// stack: file and socket descriptors in one loop (the FTP app runs
	// through it; exercise it directly here).
	c := cluster.NewTCP(2)
	c.Nodes[0].FS.Create("src.dat", 100000, "payload")
	moved := 0
	c.Eng.Spawn("server", func(p *sim.Proc) {
		s := c.Nodes[0].FD
		ffd, _ := s.Open(p, "src.dat")
		lfd, _ := s.Listen(p, 80, 2)
		cfd, err := s.Accept(p, lfd)
		if err != nil {
			return
		}
		for {
			n, objs, _ := s.Read(p, ffd, 16<<10)
			if n == 0 {
				break
			}
			var obj any
			if len(objs) > 0 {
				obj = objs[0]
			}
			s.Write(p, cfd, n, obj)
		}
		s.Close(p, cfd)
		s.Close(p, ffd)
		s.Close(p, lfd)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		s := c.Nodes[1].FD
		cfd, err := s.Connect(p, c.Addr(0), 80)
		if err != nil {
			return
		}
		out := s.Create(p, "dst.dat")
		for {
			n, objs, err := s.Read(p, cfd, 16<<10)
			if err != nil || n == 0 {
				break
			}
			var obj any
			if len(objs) > 0 {
				obj = objs[0]
			}
			s.Write(p, out, n, obj)
			moved += n
		}
		s.Close(p, cfd)
		s.Close(p, out)
	})
	c.Run(60 * sim.Second)
	if moved != 100000 {
		t.Fatalf("moved %d/100000 bytes through the fd pipeline", moved)
	}
	if size, _ := c.Nodes[1].FS.Stat("dst.dat"); size != 100000 {
		t.Fatalf("destination file = %d bytes", size)
	}
}

func TestJumboClusterEndToEnd(t *testing.T) {
	nicCfg := nic.JumboConfig()
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportSubstrate,
		NIC:       &nicCfg,
	})
	res := apps.RunFTP(c, 8<<20)
	if res.Err != nil {
		t.Fatalf("ftp over jumbo frames: %v", res.Err)
	}
	std := apps.RunFTP(cluster.NewSubstrate(2, nil), 8<<20)
	if res.Mbps() <= std.Mbps() {
		t.Fatalf("jumbo FTP (%.0f) should beat standard (%.0f)", res.Mbps(), std.Mbps())
	}
}

func TestUnknownPayloadIgnoredByEMP(t *testing.T) {
	// A raw (non-EMP) frame delivered to an EMP NIC must be counted and
	// dropped, not crash the firmware.
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng)
	h := kernel.NewHost(eng, "h", 4)
	n := nic.New(eng, "n", nic.DefaultConfig())
	n.Attach(sw)
	ep := emp.NewEndpoint(eng, h, n, emp.DefaultEndpointConfig())
	eng.After(0, func() {
		n.Deliver(&ethernet.Frame{Src: 0, Dst: 0, PayloadLen: 64, Payload: "garbage"})
	})
	eng.RunUntil(sim.Time(sim.Millisecond))
	if ep.FramesDropped.Value != 1 {
		t.Fatalf("foreign frame not dropped cleanly: %+v", ep.Counters)
	}
}

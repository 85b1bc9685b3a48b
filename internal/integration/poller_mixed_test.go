package integration

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// mixEnd tracks one listener and its accepted connection in the mixed
// interest set; it doubles as the poller's per-registration data.
type mixEnd struct {
	name string
	l    sock.Listener
	c    sock.Conn
	n    int
}

// TestPollerMixesSubstrateAndTCPInOneInterestSet: one sock.Poller
// multiplexes listeners and connections from BOTH stacks — the
// user-level substrate and the kernel TCP stack — on one fabric. The
// readiness contract is stack-agnostic, so a single event loop can
// front both; each side must deliver its accept and its data through
// the same waiter.
func TestPollerMixesSubstrateAndTCPInOneInterestSet(t *testing.T) {
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng)
	var stacks [2]*tcpip.Stack
	for i := range stacks {
		h := kernel.NewHost(eng, "tcp-host", 4)
		stacks[i] = tcpip.NewStackOnPort(eng, h, sw.Attach(nil), telemetry.New(), tcpip.DefaultStackConfig())
	}
	var subs [2]*core.Substrate
	for i := range subs {
		h := kernel.NewHost(eng, "emp-host", 4)
		n := nic.New(eng, "nic", nic.DefaultConfig())
		n.Attach(sw)
		subs[i] = core.New(eng, h, n, telemetry.New(), core.DefaultOptions())
	}

	const want = 64
	ends := []*mixEnd{{name: "substrate"}, {name: "tcp"}}
	eng.Spawn("front-end", func(p *sim.Proc) {
		var err error
		if ends[0].l, err = subs[0].Listen(p, 80, 2); err != nil {
			t.Errorf("substrate listen: %v", err)
			return
		}
		if ends[1].l, err = stacks[0].Listen(p, 80, 2); err != nil {
			t.Errorf("tcp listen: %v", err)
			return
		}
		po := sock.NewPoller(eng, "mixed-stacks")
		for _, e := range ends {
			po.Register(e.l.(sock.Pollable), sock.PollIn|sock.PollErr, e)
		}
		w := po.Waiter("front-end")
		for ends[0].n < want || ends[1].n < want {
			ev, ok := w.Wait(p, 5*sim.Second)
			if !ok {
				t.Error("mixed poller timed out")
				break
			}
			e := ev.Data.(*mixEnd)
			if e.c == nil {
				if e.l.(sock.Pollable).PollState()&sock.PollIn != 0 {
					c, err := e.l.Accept(p)
					if err != nil {
						t.Errorf("%s accept: %v", e.name, err)
						return
					}
					e.c = c
					po.Register(c.(sock.Pollable), sock.PollIn|sock.PollErr, e)
				}
			} else {
				for e.n < want && e.c.(sock.Pollable).PollState()&sock.PollIn != 0 {
					n, _, err := e.c.Read(p, want-e.n)
					if err != nil || n == 0 {
						break
					}
					e.n += n
				}
			}
			po.Done(ev.Item)
		}
		po.Close()
		for _, e := range ends {
			if e.c != nil {
				e.c.Close(p)
			}
			e.l.Close(p)
		}
	})
	eng.Spawn("sub-client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		c, err := subs[1].Dial(p, subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("substrate dial: %v", err)
			return
		}
		c.Write(p, want, "sub-data")
		p.Sleep(20 * sim.Millisecond)
		c.Close(p)
	})
	eng.Spawn("tcp-client", func(p *sim.Proc) {
		p.Sleep(70 * sim.Microsecond)
		c, err := stacks[1].Dial(p, stacks[0].Addr(), 80)
		if err != nil {
			t.Errorf("tcp dial: %v", err)
			return
		}
		c.Write(p, want, "tcp-data")
		p.Sleep(20 * sim.Millisecond)
		c.Close(p)
	})
	eng.RunUntil(sim.Time(30 * sim.Second))
	for _, e := range ends {
		if e.n != want {
			t.Fatalf("%s delivered %d of %d bytes through the mixed poller", e.name, e.n, want)
		}
	}
}

// TestPollerDeliversErrAfterPeerCrash: when the peer substrate dies, the
// keepalive detects it and the abort path fails the connection with
// sock.ErrReset; a poller holding that connection must wake with
// PollErr, and Read must surface the reset.
func TestPollerDeliversErrAfterPeerCrash(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Recovery = true
	eng, subs := substratePair(opts)
	var gotErr bool
	var rdErr error
	eng.Spawn("server", func(p *sim.Proc) {
		l, err := subs[0].Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		po := sock.NewPoller(eng, "reset")
		po.Register(c.(sock.Pollable), sock.PollIn|sock.PollErr, nil)
		w := po.Waiter("server")
		for !gotErr {
			ev, ok := w.Wait(p, sim.Second)
			if !ok {
				break // timed out: detection never happened; fail below
			}
			if ev.Events&sock.PollErr != 0 {
				gotErr = true
				_, _, rdErr = c.Read(p, 64)
			}
			po.Done(ev.Item)
		}
		po.Close()
		c.Close(p)
		l.Close(p)
	})
	eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		c, err := subs[1].Dial(p, subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Read(p, 64) // idle until the crash kills us
	})
	eng.At(sim.Time(20*sim.Millisecond), func() { subs[1].Kill() })
	eng.RunUntil(sim.Time(5 * sim.Second))
	if !gotErr {
		t.Fatal("poller never delivered PollErr after the peer crash")
	}
	if rdErr != sock.ErrReset {
		t.Fatalf("read on the reset connection returned %v, want sock.ErrReset", rdErr)
	}
}

// substratePair builds two substrate hosts with opts on one switch.
func substratePair(opts core.Options) (*sim.Engine, [2]*core.Substrate) {
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng)
	var subs [2]*core.Substrate
	for i := range subs {
		h := kernel.NewHost(eng, "host", 4)
		n := nic.New(eng, "nic", nic.DefaultConfig())
		n.Attach(sw)
		subs[i] = core.New(eng, h, n, telemetry.New(), opts)
	}
	return eng, subs
}

// TestPollerZeroTimeoutPolls: Wait with a zero timeout is a pure poll —
// it must return nothing immediately when nothing is pending and
// deliver without blocking once a connect request has landed.
func TestPollerZeroTimeoutPolls(t *testing.T) {
	eng, subs := substratePair(core.DefaultOptions())
	var before, after bool
	var afterEv sock.PollEvents
	served := false
	eng.Spawn("server", func(p *sim.Proc) {
		l, err := subs[0].Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		po := sock.NewPoller(eng, "zero")
		po.Register(l.(sock.Pollable), sock.PollIn|sock.PollErr, nil)
		w := po.Waiter("server")
		_, before = w.Wait(p, 0) // nothing has happened yet
		p.Sleep(5 * sim.Millisecond)
		ev, ok := w.Wait(p, 0) // the client's connect request landed
		after, afterEv = ok, ev.Events
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		c.Read(p, 64)
		served = true
		c.Close(p)
		l.Close(p)
		po.Close()
	})
	eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		c, err := subs[1].Dial(p, subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, 64, nil)
		c.Close(p)
	})
	eng.RunUntil(sim.Time(10 * sim.Second))
	if !served {
		t.Fatal("server did not finish")
	}
	if before {
		t.Fatal("zero-timeout Wait with nothing pending returned an event")
	}
	if !after || afterEv&sock.PollIn == 0 {
		t.Fatalf("zero-timeout Wait after connect = (%v, %v), want PollIn", afterEv, after)
	}
}

// TestPollerDeregisterWhileWaiterBlocked: removing a connection from the
// interest set while a waiter is blocked must suppress its later events
// — the waiter times out empty even though data arrives — and the data
// stays readable directly.
func TestPollerDeregisterWhileWaiterBlocked(t *testing.T) {
	eng, subs := substratePair(core.DefaultOptions())
	var got, waited bool
	var n int
	eng.Spawn("server", func(p *sim.Proc) {
		l, err := subs[0].Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		po := sock.NewPoller(eng, "dereg")
		po.Register(c.(sock.Pollable), sock.PollIn|sock.PollErr, nil)
		eng.Spawn("deregister", func(q *sim.Proc) {
			q.Sleep(1 * sim.Millisecond)     // after the Wait below blocks,
			po.Deregister(c.(sock.Pollable)) // before the client's 5ms write
		})
		_, got = po.Waiter("server").Wait(p, 20*sim.Millisecond)
		waited = true
		n, _, _ = c.Read(p, 64) // arrival was suppressed, not lost
		c.Close(p)
		l.Close(p)
		po.Close()
	})
	eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		c, err := subs[1].Dial(p, subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		p.Sleep(5 * sim.Millisecond)
		c.Write(p, 64, nil)
		p.Sleep(30 * sim.Millisecond)
		c.Close(p)
	})
	eng.RunUntil(sim.Time(10 * sim.Second))
	if !waited {
		t.Fatal("Wait never returned")
	}
	if got {
		t.Fatal("deregistered connection still delivered an event")
	}
	if n != 64 {
		t.Fatalf("read after deregister = %d, want 64", n)
	}
}

package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

// herdBed builds a bed with m established connections whose node-0
// sides each have a reader blocked in Read, plus one victim listener
// with a blocked acceptor — the population an object-targeted wakeup
// must NOT disturb. It runs to quiescence and returns the pieces.
func herdBed(t *testing.T, m int) (*bed, []sock.Conn, []sock.Conn, sock.Listener) {
	t.Helper()
	b := newBed(2, DefaultOptions())
	var serverConns, clientConns []sock.Conn
	var victim sock.Listener
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.subs[0].Listen(p, 90, m+1)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < m; i++ {
			c, err := l.Accept(p)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			serverConns = append(serverConns, c)
			b.eng.Spawn("blocked-reader", func(rp *sim.Proc) {
				c.Read(rp, 1) // no data ever comes; wakes only on close
			})
		}
	})
	b.eng.Spawn("victim-listener", func(p *sim.Proc) {
		l, err := b.subs[0].Listen(p, 91, 2)
		if err != nil {
			t.Errorf("victim listen: %v", err)
			return
		}
		victim = l
		l.Accept(p) // blocks until the listener closes
	})
	b.eng.Spawn("clients", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i := 0; i < m; i++ {
			c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 90)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			clientConns = append(clientConns, c)
		}
	})
	b.eng.RunUntil(sim.Time(200 * sim.Millisecond))
	if len(serverConns) != m || len(clientConns) != m || victim == nil {
		t.Fatalf("bed incomplete: %d/%d conns, victim=%v", len(serverConns), len(clientConns), victim)
	}
	return b, serverConns, clientConns, victim
}

// listenerCloseWakeups measures how many proc wakeups closing an
// unrelated listener causes while m blocked sockets sit on the host.
func listenerCloseWakeups(t *testing.T, m int) int64 {
	b, _, _, victim := herdBed(t, m)
	before := b.eng.Wakeups()
	b.eng.Spawn("closer", func(p *sim.Proc) { victim.Close(p) })
	b.eng.RunUntil(sim.Time(400 * sim.Millisecond))
	return b.eng.Wakeups() - before
}

// connTeardownWakeups measures wakeups when one connection's peer
// closes it while m-1 unrelated blocked readers share the host.
func connTeardownWakeups(t *testing.T, m int) int64 {
	b, _, clientConns, _ := herdBed(t, m)
	before := b.eng.Wakeups()
	b.eng.Spawn("closer", func(p *sim.Proc) { clientConns[0].Close(p) })
	b.eng.RunUntil(sim.Time(400 * sim.Millisecond))
	return b.eng.Wakeups() - before
}

// TestListenerCloseWakeupsIndependentOfHerd is the thundering-herd
// regression: listener.Close used to broadcast on the substrate-wide
// activity cond, waking every blocked socket proc on the host, so its
// wakeup count grew linearly with unrelated sockets. Targeted
// notification must keep it constant.
func TestListenerCloseWakeupsIndependentOfHerd(t *testing.T) {
	small := listenerCloseWakeups(t, 4)
	large := listenerCloseWakeups(t, 32)
	if small <= 0 {
		t.Fatalf("close woke nobody (%d): the blocked acceptor must wake", small)
	}
	if large > small+2 {
		t.Fatalf("listener close wakeups grew with the herd: %d at m=4, %d at m=32", small, large)
	}
}

// TestConnTeardownWakeupsIndependentOfHerd covers the connection
// teardown path the same way: only the torn-down connection's reader
// may wake.
func TestConnTeardownWakeupsIndependentOfHerd(t *testing.T) {
	small := connTeardownWakeups(t, 4)
	large := connTeardownWakeups(t, 32)
	if small <= 0 {
		t.Fatalf("teardown woke nobody (%d): the victim's reader must wake", small)
	}
	if large > small+2 {
		t.Fatalf("conn teardown wakeups grew with the herd: %d at m=4, %d at m=32", small, large)
	}
}

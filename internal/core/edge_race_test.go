package core

import (
	"testing"

	"repro/internal/emp"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Descriptor edge-race tests: the teardown orderings most likely to leak
// a descriptor or an eager-pool byte. Every scenario must end with a
// clean resource audit on every node.

// auditClean purges residual control traffic and then asserts the
// resource auditor finds nothing on any substrate.
func auditClean(t *testing.T, b *bed) {
	t.Helper()
	for i, s := range b.subs {
		i, s := i, s
		if !s.Dead() {
			s.PurgeStale()
		}
		s.AuditResources(func(kind, detail string) {
			t.Errorf("audit node %d: %s: %s", i, kind, detail)
		})
	}
}

func TestDoubleCloseAuditsClean(t *testing.T) {
	b := newBed(2, DefaultOptions())
	done := false
	dialPair(t, b, func(p *sim.Proc, server, client sock.Conn) {
		if _, err := client.Write(p, 100, "x"); err != nil {
			t.Errorf("write: %v", err)
		}
		if n, _, err := server.Read(p, 4096); err != nil || n != 100 {
			t.Errorf("read: %d, %v", n, err)
		}
		if err := client.Close(p); err != nil {
			t.Errorf("first close: %v", err)
		}
		if err := client.Close(p); err != nil {
			t.Errorf("second close: %v", err)
		}
		if err := server.Close(p); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := server.Close(p); err != nil {
			t.Errorf("server second close: %v", err)
		}
		// A third close much later, after all teardown traffic settled.
		p.Sleep(sim.Millisecond)
		if err := client.Close(p); err != nil {
			t.Errorf("late close: %v", err)
		}
		done = true
	})
	if !done {
		t.Fatal("body did not finish")
	}
	if b.subs[0].ActiveSockets() != 0 || b.subs[1].ActiveSockets() != 0 {
		t.Fatal("sockets leaked in active table")
	}
	auditClean(t, b)
}

// TestCloseWithUnreadEagerData: closing a socket that still holds
// buffered eager payload must drain the shared eager pool, or the
// substrate's byte budget leaks a little on every abandoned connection.
func TestCloseWithUnreadEagerData(t *testing.T) {
	opts := DefaultOptions()
	opts.EagerBudget = 64 << 10
	b := newBed(2, opts)
	done := false
	dialPair(t, b, func(p *sim.Proc, server, client sock.Conn) {
		for i := 0; i < 8; i++ {
			if _, err := client.Write(p, 1024, i); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		p.Sleep(sim.Millisecond) // let the payload land in server buffers
		// Arrivals are staged into the receive buffer (and the eager
		// gauge) when the socket pumps; a 1-byte read pumps everything
		// that landed and leaves the rest unread.
		if n, _, err := server.Read(p, 1); err != nil || n != 1 {
			t.Errorf("priming read: %d, %v", n, err)
		}
		if now, _ := b.subs[0].EagerBytes(); now == 0 {
			t.Error("eager gauge shows no staged bytes before close")
		}
		// Server abandons the socket without reading a byte.
		if err := server.Close(p); err != nil {
			t.Errorf("server close: %v", err)
		}
		client.Close(p)
		p.Sleep(sim.Millisecond)
		if now, _ := b.subs[0].EagerBytes(); now != 0 {
			t.Errorf("eager pool holds %d bytes after close, want 0", now)
		}
		done = true
	})
	if !done {
		t.Fatal("body did not finish")
	}
	auditClean(t, b)
}

// TestCloseRacesInFlightWrites: the client fires writes and closes
// immediately; whatever teardown interleaving results, nothing may leak.
func TestCloseRacesInFlightWrites(t *testing.T) {
	b := newBed(2, DefaultOptions())
	done := false
	dialPair(t, b, func(p *sim.Proc, server, client sock.Conn) {
		b.eng.Spawn("racer", func(rp *sim.Proc) {
			for i := 0; i < 4; i++ {
				if _, err := client.Write(rp, 2048, i); err != nil {
					return // close won the race; fine
				}
			}
		})
		// Close while the racer's writes are in flight.
		p.Sleep(30 * sim.Microsecond)
		server.Close(p)
		p.Sleep(100 * sim.Microsecond)
		client.Close(p)
		done = true
	})
	if !done {
		t.Fatal("body did not finish")
	}
	auditClean(t, b)
}

// TestListenerCloseWithParkedRequests: pending connection requests a
// closing listener never accepted must be refused, and the listener's
// backlog descriptors reclaimed — the Unpost-vs-arrival race in teardown
// form. Dialers must observe ErrRefused, not a hang.
func TestListenerCloseWithParkedRequests(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncConnect = true
	b := newBed(4, opts)
	var l sock.Listener
	refused := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		var err error
		l, err = b.subs[0].Listen(p, 80, 2)
		if err != nil {
			t.Errorf("listen: %v", err)
		}
	})
	for i := 1; i < 4; i++ {
		i := i
		b.eng.Spawn("dialer", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+i) * sim.Microsecond)
			_, err := b.subs[i].Dial(p, b.subs[0].Addr(), 80)
			if err == sock.ErrRefused {
				refused++
			} else if err == nil {
				t.Errorf("dialer %d: connected to a listener that never accepts", i)
			} else {
				t.Errorf("dialer %d: %v, want ErrRefused", i, err)
			}
		})
	}
	b.eng.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond) // requests are parked by now
		if err := l.Close(p); err != nil {
			t.Errorf("listener close: %v", err)
		}
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if refused != 3 {
		t.Fatalf("refused %d/3 dialers", refused)
	}
	auditClean(t, b)
}

// TestBudgetExhaustionLeavesAuditClean: exhaust the client endpoint's
// descriptor budget with scratch receives, observe that a Write fails
// with the typed denial but leaves the socket usable, then release the
// budget — the bookkeeping itself must not leak.
func TestBudgetExhaustionLeavesAuditClean(t *testing.T) {
	opts := DefaultOptions()
	opts.DescriptorBudget = 48
	b := newBed(2, opts)
	done := false
	dialPair(t, b, func(p *sim.Proc, server, client sock.Conn) {
		if _, err := client.Write(p, 100, "warm"); err != nil {
			t.Errorf("warm write: %v", err)
		}
		if n, _, err := server.Read(p, 4096); err != nil || n != 100 {
			t.Errorf("warm read: %d, %v", n, err)
		}
		// Eat the remaining budget with scratch descriptors on a tag no
		// substrate traffic uses.
		const scratchTag = emp.Tag(0x3F00)
		ep := b.subs[1].EP
		var scratch []*emp.RecvHandle
		for {
			h := ep.PostRecv(p, emp.AnySource, scratchTag, 64, 900)
			if h.Status() == emp.StatusNoDescriptors {
				break
			}
			scratch = append(scratch, h)
			if len(scratch) > opts.DescriptorBudget {
				t.Fatal("budget never exhausted")
			}
		}
		// Denial fails the operation, not the connection.
		if _, err := client.Write(p, 100, "denied"); err != emp.ErrNoDescriptors {
			t.Errorf("write at exhaustion = %v, want emp.ErrNoDescriptors", err)
		}
		for _, h := range scratch {
			if !ep.Unpost(p, h) {
				t.Error("scratch unpost lost a race it cannot lose")
			}
		}
		if _, err := client.Write(p, 100, "recovered"); err != nil {
			t.Errorf("write after release: %v", err)
		}
		if n, _, err := server.Read(p, 4096); err != nil || n != 100 {
			t.Errorf("read after release: %d, %v", n, err)
		}
		client.Close(p)
		server.Close(p)
		p.Sleep(sim.Millisecond)
		done = true
	})
	if !done {
		t.Fatal("body did not finish")
	}
	auditClean(t, b)
}

package core

import (
	"testing"

	"repro/internal/emp"
	"repro/internal/sim"
	"repro/internal/sock"
)

// TestTwoNBoundInvariant checks the paper's Section 6.1 claim: with N
// credits and the "post more descriptors" solution, "at any point of
// time, the number of unattended data and acknowledgment messages will
// not exceed 2N" — so 2N posted descriptors (N data + N ack) always
// suffice. We sample the per-connection posted-descriptor population and
// the unattended (completed-but-unconsumed) message count continuously
// during a bidirectional exchange.
func TestTwoNBoundInvariant(t *testing.T) {
	opts := DefaultOptions()
	opts.Credits = 4
	opts.UQAcks = false // the classic 2N-descriptor configuration
	opts.DelayedAcks = false
	b := newBed(2, opts)
	n := opts.Credits

	var conns [2]*Conn
	violation := ""
	check := func() {
		for i, c := range conns {
			if c == nil || c.cleaned {
				continue
			}
			posted := len(c.dataHandles) + len(c.ackHandles)
			if posted > 2*n {
				violation = "side has more than 2N descriptors posted"
				_ = i
			}
			unattended := 0
			for _, h := range c.dataHandles {
				if h.Status() != emp.StatusPending {
					unattended++
				}
			}
			for _, h := range c.ackHandles {
				if h.Status() != emp.StatusPending {
					unattended++
				}
			}
			if unattended > 2*n {
				violation = "more than 2N unattended messages"
			}
			if c.credits < 0 || c.credits > n {
				violation = "credit count outside [0, N]"
			}
		}
	}
	b.eng.Spawn("monitor", func(p *sim.Proc) {
		for i := 0; i < 3000 && violation == ""; i++ {
			check()
			p.Sleep(2 * sim.Microsecond)
		}
	})
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		conns[0] = c.(*Conn)
		for i := 0; i < 20; i++ {
			if _, _, err := sock.ReadFull(p, c, 1000); err != nil {
				return
			}
			c.Write(p, 1000, nil)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		conns[1] = c.(*Conn)
		// Burst more writes than credits before reading, the pattern
		// the credit scheme must absorb.
		for i := 0; i < 4; i++ {
			c.Write(p, 1000, nil)
		}
		sock.ReadFull(p, c, 4*1000)
		for i := 0; i < 16; i++ {
			c.Write(p, 1000, nil)
			sock.ReadFull(p, c, 1000)
		}
	})
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	if violation != "" {
		t.Fatalf("2N invariant violated: %s", violation)
	}
	if conns[0] == nil || conns[1] == nil {
		t.Fatal("connections not established")
	}
}

// TestCreditBurstTolerance: the paper's claim that the substrate
// tolerates up to N outstanding writes before the first read — exactly
// N writes must complete without any read on the peer.
func TestCreditBurstTolerance(t *testing.T) {
	opts := DefaultOptions()
	opts.Credits = 8
	b := newBed(2, opts)
	var wrote int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		l.Accept(p)
		// Never reads.
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		for i := 0; i < opts.Credits; i++ {
			if _, err := c.Write(p, 100, nil); err != nil {
				return
			}
			wrote++
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if wrote != opts.Credits {
		t.Fatalf("completed %d writes without a reader, want exactly N=%d", wrote, opts.Credits)
	}
	if b.subs[1].CreditStalls.Value != 0 {
		t.Fatal("the first N writes must not stall")
	}
}

// TestWriteBeyondCreditsBlocksWithoutReader: write N+1 never completes
// when the peer never reads — the documented deadlock risk the paper
// accepts ("the onus of keeping the application deadlock free is on the
// end user").
func TestWriteBeyondCreditsBlocksWithoutReader(t *testing.T) {
	opts := DefaultOptions()
	opts.Credits = 2
	b := newBed(2, opts)
	extraCompleted := false
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		l.Accept(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		for i := 0; i < opts.Credits; i++ {
			c.Write(p, 100, nil)
		}
		c.Write(p, 100, nil) // N+1: must block forever
		extraCompleted = true
	})
	b.eng.RunUntil(sim.Time(2 * sim.Second))
	if extraCompleted {
		t.Fatal("write N+1 completed with no reader — flow control broken")
	}
	if b.subs[1].CreditStalls.Value == 0 {
		t.Fatal("the N+1-th write should have stalled on credits")
	}
	// The blocked writer must be visible in diagnostics.
	if len(b.eng.BlockedProcs()) == 0 {
		t.Fatal("blocked writer missing from diagnostics")
	}
}

package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/sock"
)

// TestRendezvousWriteWriteDeadlock reproduces the paper's Figure 7: with
// the pure rendezvous approach, two nodes that both write() before
// read() deadlock — each sender's request waits for an acknowledgment
// that the peer only sends from its read() call, which it never reaches.
// The paper accepts this (rendezvous layers put the onus on the user);
// the implementation surfaces it as a timeout rather than hanging
// forever.
func TestRendezvousWriteWriteDeadlock(t *testing.T) {
	opts := DatagramOptions()
	opts.ForceRendezvous = true
	b := newBed(2, opts)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		me := i
		b.eng.Spawn("node", func(p *sim.Proc) {
			var c sock.Conn
			if me == 0 {
				l, _ := b.subs[0].Listen(p, 80, 4)
				c, _ = l.Accept(p)
			} else {
				p.Sleep(10 * sim.Microsecond)
				c, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			}
			// Both write first (Figure 7's pattern)...
			_, errs[me] = c.Write(p, 1024, nil)
			// ...and only then would read.
			if errs[me] == nil {
				c.Read(p, 1024)
			}
		})
	}
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	deadlocked := 0
	for _, err := range errs {
		if err == sock.ErrTimeout {
			deadlocked++
		}
	}
	if deadlocked != 2 {
		t.Fatalf("Figure 7 deadlock not reproduced: errs=%v", errs)
	}
}

// TestEagerToleratesWriteWrite is Figure 9's counterpart: the same
// write-before-read pattern succeeds under eager-with-flow-control
// because pre-posted descriptors absorb up to N outstanding writes.
func TestEagerToleratesWriteWrite(t *testing.T) {
	b := newBed(2, DefaultOptions())
	finished := 0
	for i := 0; i < 2; i++ {
		me := i
		b.eng.Spawn("node", func(p *sim.Proc) {
			var c sock.Conn
			if me == 0 {
				l, _ := b.subs[0].Listen(p, 80, 4)
				c, _ = l.Accept(p)
			} else {
				p.Sleep(10 * sim.Microsecond)
				c, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			}
			if _, err := c.Write(p, 1024, nil); err != nil {
				return
			}
			if _, _, err := sock.ReadFull(p, c, 1024); err != nil {
				return
			}
			finished++
		})
	}
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if finished != 2 {
		t.Fatalf("eager write-write exchange completed on %d/2 nodes", finished)
	}
}

// TestFig12MechanismIsTagWalkLength verifies the causal mechanism behind
// Figure 12, not just the latency outcome: with small credit counts a
// larger fraction of tag-match walk steps is spent on acknowledgment
// descriptors, so the per-message walk is longer.
func TestFig12MechanismIsTagWalkLength(t *testing.T) {
	walkPerMsg := func(credits int) float64 {
		o := DefaultOptions()
		o.UQAcks = false
		o.Credits = credits
		b := newBed(2, o)
		pingPong(b, 4, 40)
		walked := b.subs[0].EP.NIC.TagWalked.Value + b.subs[1].EP.NIC.TagWalked.Value
		msgs := b.subs[0].MsgsSent.Value + b.subs[1].MsgsSent.Value
		return float64(walked) / float64(msgs)
	}
	w1 := walkPerMsg(1)
	w32 := walkPerMsg(32)
	if w1 <= w32 {
		t.Fatalf("credit-1 walks (%.1f/msg) should exceed credit-32 walks (%.1f/msg)", w1, w32)
	}
}

// TestFig12UQTradesWalkWorkOffCriticalPath verifies Section 6.4's
// mechanism precisely. Moving acknowledgments to the unexpected queue
// INCREASES total tag-match work — each ack message now walks the whole
// pre-posted list before parking in the queue (the paper: descriptors
// in the unexpected queue "are the last to be checked during tag
// matching") — yet latency improves, because those walks happen for ack
// arrivals rather than on the data messages' critical path.
func TestFig12UQTradesWalkWorkOffCriticalPath(t *testing.T) {
	run := func(uq bool) (walkPerMsg float64, latency float64) {
		o := DefaultOptions()
		o.UQAcks = uq
		o.Credits = 8
		o.DelayedAcks = false // maximize ack traffic
		b := newBed(2, o)
		lat := pingPong(b, 4, 40)
		walked := b.subs[0].EP.NIC.TagWalked.Value + b.subs[1].EP.NIC.TagWalked.Value
		msgs := b.subs[0].MsgsSent.Value + b.subs[1].MsgsSent.Value
		return float64(walked) / float64(msgs), lat.Micros()
	}
	descWalk, _ := run(false)
	uqWalk, _ := run(true)
	if uqWalk <= descWalk {
		t.Fatalf("UQ acks should RAISE total walk work (acks scan the whole list): desc=%.1f uq=%.1f",
			descWalk, uqWalk)
	}
	// The payoff needs infrequent acks: this is why the paper pairs the
	// unexpected queue WITH delayed acknowledgments (DS_DA_UQ). In that
	// configuration the shorter data walks win.
	daLat := func(uq bool) float64 {
		o := DefaultOptions()
		o.UQAcks = uq
		return pingPong(newBed(2, o), 4, 40).Micros()
	}
	withDesc := daLat(false)
	withUQ := daLat(true)
	if withUQ >= withDesc {
		t.Fatalf("DS_DA_UQ (%.2f us) should beat DS_DA (%.2f us)", withUQ, withDesc)
	}
}

// Property: the transfer conserves bytes for any loss seed — EMP
// reliability under the substrate.
func TestLossSeedConservationProperty(t *testing.T) {
	f := func(seed uint8) bool {
		opts := DefaultOptions()
		opts.Credits = 4
		b := newBedWithLoss(opts, 0.02, uint64(seed)+1)
		const total = 256 << 10
		got := 0
		b.eng.Spawn("server", func(p *sim.Proc) {
			l, _ := b.subs[0].Listen(p, 80, 4)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for got < total {
				n, _, err := c.Read(p, 64<<10)
				if err != nil || n == 0 {
					return
				}
				got += n
			}
		})
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			if err != nil {
				return
			}
			for sent := 0; sent < total; sent += 32 << 10 {
				c.Write(p, 32<<10, nil)
			}
		})
		b.eng.RunUntil(sim.Time(120 * sim.Second))
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

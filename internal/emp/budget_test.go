package emp

import (
	"testing"

	"repro/internal/sim"
)

// Descriptor-budget and unexpected-queue byte-cap tests: the bounded
// resource pools that keep an overloaded endpoint failing fast instead
// of exhausting NIC memory.

func withDescBudget(n int) bedOpt {
	return func(b *testbed) { b.epCfg.MaxDescriptors = n }
}

func withUQBytes(n int) bedOpt {
	return func(b *testbed) { b.epCfg.UnexpectedBytes = n }
}

// TestPostRecvBeyondBudgetFailsFast: posting past MaxDescriptors must
// complete immediately with StatusNoDescriptors, never reach the NIC,
// and recover once a descriptor is unposted.
func TestPostRecvBeyondBudgetFailsFast(t *testing.T) {
	b := newBed(withDescBudget(2))
	b.eng.Spawn("driver", func(p *sim.Proc) {
		ep := b.eps[1]
		h1 := ep.PostRecv(p, AnySource, 1, 4096, 100)
		h2 := ep.PostRecv(p, AnySource, 2, 4096, 101)
		if st := h1.Status(); st != StatusPending {
			t.Errorf("h1 completed early: %v", st)
		}
		h3 := ep.PostRecv(p, AnySource, 3, 4096, 102)
		if st := h3.Status(); st != StatusNoDescriptors {
			t.Errorf("over-budget post: status=%v, want immediate StatusNoDescriptors", st)
		}
		if got := ep.DescriptorsInUse(); got != 2 {
			t.Errorf("descriptors in use = %d, want 2", got)
		}
		if got := ep.DescDenied.Value; got != 1 {
			t.Errorf("DescDenied = %d, want 1", got)
		}
		// Unposting frees budget; the next post succeeds.
		p.Sleep(10 * sim.Microsecond)
		if !ep.Unpost(p, h2) {
			t.Error("unpost h2 failed")
		}
		h4 := ep.PostRecv(p, AnySource, 4, 4096, 103)
		if st := h4.Status(); st != StatusPending {
			t.Errorf("post after unpost completed early: %v", st)
		}
		if got := ep.DescriptorHighWater(); got != 2 {
			t.Errorf("descriptor high water = %d, want 2", got)
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
}

// TestPostSendBeyondBudgetFailsFast: sends share the same budget and
// must be refused host-side before any post cost is paid.
func TestPostSendBeyondBudgetFailsFast(t *testing.T) {
	b := newBed(withDescBudget(1))
	b.eng.Spawn("driver", func(p *sim.Proc) {
		ep := b.eps[0]
		ep.PostRecv(p, AnySource, 1, 4096, 100) // consumes the whole budget
		before := p.Now()
		h := ep.PostSend(p, b.eps[1].Addr(), 7, 1000, "payload", 200)
		if p.Now() != before {
			t.Error("over-budget PostSend burned simulated time")
		}
		if st := ep.WaitSend(p, h); st != StatusNoDescriptors {
			t.Errorf("send status %v, want StatusNoDescriptors", st)
		}
		if got := ep.DescDenied.Value; got != 1 {
			t.Errorf("DescDenied = %d, want 1", got)
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
}

// TestDescriptorBudgetReleasedOnCompletion: a completed receive returns
// its descriptor, so steady-state traffic never exhausts the budget.
func TestDescriptorBudgetReleasedOnCompletion(t *testing.T) {
	b := newBed(withDescBudget(1))
	const rounds = 5
	got := 0
	b.eng.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			h := b.eps[1].PostRecv(p, AnySource, 7, 4096, 100)
			if _, st := b.eps[1].WaitRecv(p, h); st != StatusOK {
				t.Errorf("round %d: recv status %v", i, st)
				return
			}
			got++
		}
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		for i := 0; i < rounds; i++ {
			if st := b.eps[0].Send(p, b.eps[1].Addr(), 7, 1000, i, 200); st != StatusOK {
				t.Errorf("round %d: send status %v", i, st)
				return
			}
			p.Sleep(50 * sim.Microsecond)
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if got != rounds {
		t.Fatalf("delivered %d/%d", got, rounds)
	}
	if n := b.eps[1].DescriptorsInUse(); n != 0 {
		t.Fatalf("descriptors still in use at quiescence: %d", n)
	}
	if hw := b.eps[1].DescriptorHighWater(); hw != 1 {
		t.Fatalf("high water %d, want 1", hw)
	}
}

// TestUQByteCapEvictsOldestNonSetup: when the unexpected queue exceeds
// its byte budget the oldest unprotected entry is dropped; entries the
// setup classifier protects survive even under sustained overflow.
func TestUQByteCapEvictsOldestNonSetup(t *testing.T) {
	const setupTag = Tag(99)
	b := newBed(withUQBytes(2500), withUQ(64))
	b.eps[1].SetUnexpectedSetupClass(func(tag Tag) bool { return tag == setupTag })
	b.eng.Spawn("send", func(p *sim.Proc) {
		// One protected setup message first, then a stream of data
		// messages that blow the 2500-byte cap.
		b.eps[0].Send(p, b.eps[1].Addr(), setupTag, 1000, "setup", 10)
		for i := 0; i < 5; i++ {
			b.eps[0].Send(p, b.eps[1].Addr(), Tag(i), 1000, i, BufKey(20+i))
			p.Sleep(20 * sim.Microsecond)
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	ep := b.eps[1]
	if got := ep.UnexpectedBytes(); got > 2500 {
		t.Fatalf("unexpected-queue bytes %d exceed the 2500 cap", got)
	}
	if !ep.PeekUnexpected(AnySource, setupTag) {
		t.Fatal("protected setup message was evicted")
	}
	if ep.UQDropped.Value == 0 {
		t.Fatal("byte cap never dropped anything")
	}
	// Eviction is oldest-first among unprotected entries: the survivors
	// must be the most recently sent data tags.
	var tags []Tag
	ep.VisitUnexpected(func(m Message) { tags = append(tags, m.Tag) })
	for _, tag := range tags {
		if tag != setupTag && tag < 3 {
			t.Fatalf("old entry tag=%d survived; queued tags %v", tag, tags)
		}
	}
}

// TestUQByteCapFreesNICSlots: evicted entries must return their NIC
// unexpected slots, or a capped queue would still wedge the endpoint.
func TestUQByteCapFreesNICSlots(t *testing.T) {
	b := newBed(withUQBytes(1500), withUQ(4))
	const msgs = 12
	b.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if st := b.eps[0].Send(p, b.eps[1].Addr(), Tag(i), 1000, i, BufKey(20+i)); st != StatusOK {
				t.Errorf("send %d: status %v", i, st)
				return
			}
			p.Sleep(50 * sim.Microsecond)
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	// With only 4 NIC slots and a 1500-byte cap, all 12 sends complete
	// only if eviction recycles slots.
	if got := b.eps[1].UnexpectedQueued(); got != 1 {
		t.Fatalf("queued %d entries at quiescence, want 1 survivor", got)
	}
	if got := b.eps[1].UQDropped.Value; got != msgs-1 {
		t.Fatalf("UQDropped = %d, want %d", got, msgs-1)
	}
}

package sock

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestWaiterExclusiveDelivery: one event posted while K waiters are
// parked must wake and serve exactly one of them — no thundering herd.
func TestWaiterExclusiveDelivery(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "excl")
	s := &stubPollable{}
	po.Register(s, PollIn, "x")
	const k = 4
	got := 0
	timedOut := 0
	for i := 0; i < k; i++ {
		w := po.Waiter(fmt.Sprintf("w%d", i))
		e.Spawn("worker", func(p *sim.Proc) {
			ev, ok := w.Wait(p, 100*sim.Microsecond)
			if ok {
				got++
				if ev.Data.(string) != "x" {
					t.Errorf("wrong event data %v", ev.Data)
				}
			} else {
				timedOut++
			}
		})
	}
	e.After(10*sim.Microsecond, func() { s.fire(PollIn) })
	e.Run()
	if got != 1 || timedOut != k-1 {
		t.Fatalf("delivered to %d waiters (%d timed out), want exactly 1 (%d)", got, timedOut, k-1)
	}
}

// TestWaiterDistinctEventsSpread: N simultaneous events with N parked
// waiters must be delivered one-per-waiter, in FIFO park order.
func TestWaiterDistinctEventsSpread(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "spread")
	const n = 4
	stubs := make([]*stubPollable, n)
	for i := range stubs {
		stubs[i] = &stubPollable{id: i}
		po.Register(stubs[i], PollIn, i)
	}
	served := make(map[string]int) // waiter name -> object id
	for i := 0; i < n; i++ {
		w := po.Waiter(fmt.Sprintf("w%d", i))
		e.Spawn("worker", func(p *sim.Proc) {
			ev, ok := w.Wait(p, -1)
			if !ok {
				t.Errorf("waiter %s: Wait failed", w.Name)
				return
			}
			served[w.Name] = ev.Data.(int)
		})
	}
	e.After(10, func() {
		for _, s := range stubs {
			s.fire(PollIn)
		}
	})
	e.Run()
	if len(served) != n {
		t.Fatalf("served %d waiters, want %d: %v", len(served), n, served)
	}
	seen := make(map[int]bool)
	for _, id := range served {
		if seen[id] {
			t.Fatalf("object %d delivered twice: %v", id, served)
		}
		seen[id] = true
	}
	for i := 0; i < n; i++ {
		w := po.waiters[i]
		if w.Delivered != 1 || w.Waits != 1 {
			t.Fatalf("waiter %s counters delivered=%d waits=%d, want 1/1", w.Name, w.Delivered, w.Waits)
		}
	}
}

// TestWaiterBusyMaskAndRepost: while a waiter holds an object claimed,
// a new edge on it must not be delivered to a second waiter; Done must
// re-arm it (one delivery) when it is still ready, and not re-arm when
// the worker drained it.
func TestWaiterBusyMaskAndRepost(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "busy")
	s := &stubPollable{}
	po.Register(s, PollIn, "x")
	w1 := po.Waiter("w1")
	w2 := po.Waiter("w2")

	e.Spawn("holder", func(p *sim.Proc) {
		_, ok := w1.Wait(p, -1)
		if !ok {
			t.Error("w1 initial claim failed")
			return
		}
		// Edge fires while claimed: w2 must NOT get it.
		s.fire(PollIn)
		p.Sleep(50)
		// Still ready at Done: repost delivers exactly once, to w2.
		po.Done(s)
	})
	var w2got int
	e.Spawn("second", func(p *sim.Proc) {
		p.Sleep(10) // let w1 claim first
		for {
			_, ok := w2.Wait(p, 100)
			if !ok {
				return
			}
			w2got++
			po.Done(s)
		}
	})
	s.fire(PollIn)
	e.Run()
	if w2got != 1 {
		t.Fatalf("repost delivered %d events to w2, want exactly 1", w2got)
	}

	// Drained-at-Done case: no repost.
	w2got = 0
	e.Spawn("holder2", func(p *sim.Proc) {
		s.fire(PollIn)
		_, ok := w1.Wait(p, 0)
		if !ok {
			t.Error("w1 second claim failed")
			return
		}
		s.fire(PollIn) // edge while busy...
		s.state = 0    // ...but worker drains the object before Done
		po.Done(s)
	})
	e.Spawn("second2", func(p *sim.Proc) {
		p.Sleep(10)
		if _, ok := w2.Wait(p, 100); ok {
			w2got++
		}
	})
	e.Run()
	if w2got != 0 {
		t.Fatalf("drained object reposted %d events, want 0", w2got)
	}
}

// TestWaiterDeregisterWhileOtherWaiterBlocked: deregistering an object
// must not wake a parked waiter, must discard the object's pending
// event, and a later event on a different object must still reach the
// parked waiter.
func TestWaiterDeregisterWhileOtherWaiterBlocked(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "dereg")
	a := &stubPollable{id: 0}
	b := &stubPollable{id: 1}
	po.Register(a, PollIn, "a")
	po.Register(b, PollIn, "b")
	w := po.Waiter("w")
	var gotData []string
	e.Spawn("worker", func(p *sim.Proc) {
		for {
			ev, ok := w.Wait(p, 200)
			if !ok {
				return
			}
			gotData = append(gotData, ev.Data.(string))
			po.Done(ev.Item)
		}
	})
	e.After(10, func() {
		a.fire(PollIn)   // pending event for a...
		po.Deregister(a) // ...discarded before the waiter runs
	})
	e.After(50, func() { b.fire(PollIn) })
	e.Run()
	if len(gotData) != 1 || gotData[0] != "b" {
		t.Fatalf("delivered %v, want exactly [b]", gotData)
	}
}

// TestWaiterCloseWakesAllBlocked: Close while multiple waiters are
// parked must unblock every one of them with ok=false, exactly once,
// and the poller must remain usable for a fresh register/wait cycle.
func TestWaiterCloseWakesAllBlocked(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "close")
	s := &stubPollable{}
	po.Register(s, PollIn, "x")
	const k = 3
	closedReturns := 0
	for i := 0; i < k; i++ {
		w := po.Waiter(fmt.Sprintf("w%d", i))
		e.Spawn("worker", func(p *sim.Proc) {
			if _, ok := w.Wait(p, -1); ok {
				t.Error("Wait returned an event after Close")
				return
			}
			closedReturns++
		})
	}
	e.After(20, func() { po.Close() })
	e.Run()
	if closedReturns != k {
		t.Fatalf("%d waiters unblocked by Close, want %d", closedReturns, k)
	}

	// Reuse after Close: a new register + event must deliver normally.
	s2 := &stubPollable{}
	po.Register(s2, PollIn, "y")
	w := po.Waiter("fresh")
	delivered := false
	e.Spawn("worker", func(p *sim.Proc) {
		ev, ok := w.Wait(p, 100)
		if ok && ev.Data.(string) == "y" {
			delivered = true
		}
	})
	e.After(10, func() { s2.fire(PollIn) })
	e.Run()
	if !delivered {
		t.Fatal("poller unusable after Close")
	}
}

// TestWaiterFairnessAcrossWaiters: with one hot object firing
// repeatedly and two waiters taking turns, deliveries must alternate
// between the waiters (FIFO park order), not pile onto one.
func TestWaiterFairnessAcrossWaiters(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "fairw")
	s := &stubPollable{}
	po.Register(s, PollIn, "x")
	const rounds = 6
	counts := make(map[string]int)
	for i := 0; i < 2; i++ {
		w := po.Waiter(fmt.Sprintf("w%d", i))
		e.Spawn("worker", func(p *sim.Proc) {
			for {
				_, ok := w.Wait(p, 500)
				if !ok {
					return
				}
				counts[w.Name]++
				s.state = 0 // consume
				po.Done(s)
				p.Sleep(15) // handling time exceeds the fire interval gap
			}
		})
	}
	for r := 0; r < rounds; r++ {
		e.After(sim.Duration(10+20*r), func() { s.fire(PollIn) })
	}
	e.Run()
	if counts["w0"]+counts["w1"] != rounds {
		t.Fatalf("total deliveries %v, want %d", counts, rounds)
	}
	if counts["w0"] != rounds/2 || counts["w1"] != rounds/2 {
		t.Fatalf("deliveries not fair across waiters: %v", counts)
	}
}

// TestWaiterRoundRobinAcrossObjects: the shared cursor must rotate
// claims across hot objects even though each Wait claims only one.
func TestWaiterRoundRobinAcrossObjects(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "rr")
	const n = 3
	stubs := make([]*stubPollable, n)
	for i := range stubs {
		stubs[i] = &stubPollable{id: i}
		po.Register(stubs[i], PollIn, i)
	}
	w := po.Waiter("w")
	var order []int
	e.Spawn("worker", func(p *sim.Proc) {
		for round := 0; round < 2*n; round++ {
			for _, s := range stubs {
				s.fire(PollIn) // everyone hot, every round
			}
			ev, ok := w.Wait(p, 0)
			if !ok {
				t.Error("claim failed with all objects ready")
				return
			}
			order = append(order, ev.Data.(int))
			po.Done(ev.Item)
		}
	})
	e.Run()
	for i, id := range order {
		if id != i%n {
			t.Fatalf("claim order %v does not rotate across objects", order)
		}
	}
}

// TestWaiterRegisterKickWhileParked: registering an already-ready
// object must wake a parked waiter (the level-triggered kick reaches
// a waiter that is already blocked).
func TestWaiterRegisterKickWhileParked(t *testing.T) {
	e := sim.NewEngine()
	po := NewPoller(e, "kickw")
	w := po.Waiter("w")
	delivered := false
	e.Spawn("worker", func(p *sim.Proc) {
		ev, ok := w.Wait(p, 100)
		if ok && ev.Data.(string) == "late" {
			delivered = true
		}
	})
	s := &stubPollable{state: PollIn} // ready before registration
	e.After(10, func() { po.Register(s, PollIn, "late") })
	e.Run()
	if !delivered {
		t.Fatal("register kick did not reach the parked waiter")
	}
}

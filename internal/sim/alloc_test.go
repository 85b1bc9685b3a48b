package sim

import "testing"

// The engine's hot operations must not allocate once warmed up: events
// recycle their slots and a proc parks in the waiter it owns. Each case
// runs its loop once before measuring, so the slot table, the heap and
// the queues have already grown to their steady-state size.

func checkNoAllocs(t *testing.T, what string, step func()) {
	t.Helper()
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("%s allocates %v times per step, want 0", what, n)
	}
}

func TestAfterAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	checkNoAllocs(t, "After plus firing", func() {
		e.After(10, fn)
		e.Run()
	})
	if fired == 0 {
		t.Fatal("event never fired")
	}
}

// AtArg is the form the per-frame hops use: a bound fn and a pointer
// argument, which fits in the interface without allocating.
func TestAtArgAllocatesNothing(t *testing.T) {
	type frame struct{ hops int }
	e := NewEngine()
	f := &frame{}
	hop := func(a any) { a.(*frame).hops++ }
	checkNoAllocs(t, "AtArg with a pointer argument plus firing", func() {
		e.AtArg(e.Now()+10, hop, f)
		e.Run()
	})
	if f.hops == 0 {
		t.Fatal("event never fired")
	}
}

func TestSleepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	e.RunUntil(0)
	checkNoAllocs(t, "Proc.Sleep", func() { e.RunUntil(e.Now() + 10) })
}

func TestWaitQueueAllocatesNothing(t *testing.T) {
	e := NewEngine()
	wq := NewWaitQueue(e, "q")
	e.Spawn("waiter", func(p *Proc) {
		for {
			wq.Wait(p)
		}
	})
	e.Run()
	checkNoAllocs(t, "WaitQueue.Wait/WakeOne", func() {
		if !wq.WakeOne() {
			t.Fatal("no waiter parked")
		}
		e.Run()
	})
}

func TestFIFOAllocatesNothing(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, "q", 2)
	got := 0
	e.Spawn("producer", func(p *Proc) {
		for i := 0; ; i++ {
			q.Put(p, i)
			p.Sleep(1)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); ok {
				got++
			}
		}
	})
	e.RunUntil(0)
	checkNoAllocs(t, "FIFO.Put/Get", func() { e.RunUntil(e.Now() + 1) })
	if got < 200 {
		t.Fatalf("consumer got %d items, want one per step", got)
	}
}

func TestCondAllocatesNothing(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	ready := false
	pred := func() bool { return ready }
	e.Spawn("waiter", func(p *Proc) {
		for {
			c.WaitFor(p, pred)
			ready = false
		}
	})
	e.Run()
	checkNoAllocs(t, "Cond.WaitFor/Broadcast", func() {
		ready = true
		c.Broadcast()
		e.Run()
		if ready {
			t.Fatal("waiter did not run")
		}
	})
}

// A handle outlives its event: once the event fired or was discarded its
// slot is reused, and the old handle must neither report the new event
// pending nor cancel it.
func TestRecycledHandleIsInert(t *testing.T) {
	for _, cancelFirst := range []bool{false, true} {
		e := NewEngine()
		old := e.At(10, func() {})
		if cancelFirst {
			old.Cancel()
		}
		e.Run()
		fired := false
		cur := e.At(20, func() { fired = true })
		if cur.ref != old.ref {
			t.Fatalf("new event took slot %d, not the recycled slot %d", cur.ref, old.ref)
		}
		if old.Pending() {
			t.Fatal("recycled handle reports the slot's new event pending")
		}
		old.Cancel()
		if !cur.Pending() {
			t.Fatal("cancelling a recycled handle cancelled the slot's new event")
		}
		e.Run()
		if !fired {
			t.Fatal("the slot's new event did not fire")
		}
	}
}

func TestZeroEventIsInert(t *testing.T) {
	var ev Event
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("zero Event reports pending")
	}
}

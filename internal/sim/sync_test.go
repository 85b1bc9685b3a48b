package sim

import (
	"testing"
	"testing/quick"
)

func TestFIFOPreservesOrder(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "f", 0)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			f.put(p, i)
			p.Sleep(3)
		}
		f.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := f.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 10 {
		t.Fatalf("got %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestFIFOCapacityBlocksProducer(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "f", 2)
	var lastPut Time
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			f.put(p, i)
		}
		lastPut = p.Now()
	})
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(1000)
		for i := 0; i < 4; i++ {
			f.Get(p)
			p.Sleep(100)
		}
	})
	e.Run()
	if lastPut < 1000 {
		t.Fatalf("producer finished at %v; capacity did not block it", lastPut)
	}
}

func TestFIFOTryOps(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "f", 1)
	if !f.TryPut(1) {
		t.Fatal("TryPut into empty bounded queue failed")
	}
	if f.TryPut(2) {
		t.Fatal("TryPut into full queue succeeded")
	}
	if v, ok := f.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
	if _, ok := f.TryGet(); ok {
		t.Fatal("TryGet from empty queue succeeded")
	}
	f.Close()
	if f.TryPut(3) {
		t.Fatal("TryPut into closed queue succeeded")
	}
}

func TestFIFOCloseWakesBlockedGetter(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "f", 0)
	var gotOK = true
	e.Spawn("c", func(p *Proc) {
		_, gotOK = f.Get(p)
	})
	e.At(100, func() { f.Close() })
	e.Run()
	if gotOK {
		t.Fatal("Get on closed-and-empty queue reported ok")
	}
	if e.LiveProcs() != 0 {
		t.Fatal("getter still blocked after Close")
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "mutex", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Spawn("worker", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(100)
			inside--
			s.Release()
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
}

func TestSemaphoreCounting(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "sem", 3)
	var concurrent, peak int
	for i := 0; i < 10; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Acquire(p)
			concurrent++
			if concurrent > peak {
				peak = concurrent
			}
			p.Sleep(50)
			concurrent--
			s.Release()
		})
	}
	e.Run()
	if peak != 3 {
		t.Fatalf("peak concurrency = %d, want 3", peak)
	}
}

func TestSemaphoreTryAcquireAndTimeout(t *testing.T) {
	// Acquire on count 1 proceeds at once; on count 0 it blocks until a
	// Release.
	e := NewEngine()
	s := NewSemaphore(e, "sem", 1)
	var first, second Time = -1, -1
	e.Spawn("acquirer", func(p *Proc) {
		s.Acquire(p)
		first = p.Now()
		s.Acquire(p)
		second = p.Now()
	})
	e.After(5, s.Release)
	e.Run()
	if first != 0 || second != 5 {
		t.Fatalf("acquired at %v and %v, want 0 and 5", first, second)
	}
}

func TestCondWaitFor(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "cond")
	x := 0
	var sawAt Time
	e.Spawn("waiter", func(p *Proc) {
		c.WaitFor(p, func() bool { return x >= 3 })
		sawAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.At(Time(i*100), func() {
			x = i
			c.Broadcast()
		})
	}
	e.Run()
	if sawAt != 300 {
		t.Fatalf("predicate satisfied at %v, want 300", sawAt)
	}
}

func TestCondWaitForTimeout(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "cond")
	var ok bool
	e.Spawn("waiter", func(p *Proc) {
		ok = c.WaitForTimeout(p, 50, func() bool { return false })
	})
	e.Run()
	if ok {
		t.Fatal("WaitForTimeout with false predicate reported success")
	}
}

// TestCondWaitUntil covers the three deadline cases: zero waits with no
// deadline, a deadline already past gives the predicate one check, and
// a future deadline expires at its instant unless the predicate holds.
func TestCondWaitUntil(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "cond")
	x := 0
	e.At(100, func() {
		x = 1
		c.Broadcast()
	})
	type result struct {
		ok bool
		at Time
	}
	var noDeadline, pastTrue, pastFalse, expired, met result
	e.Spawn("waiter", func(p *Proc) {
		ok := c.WaitUntil(p, 0, func() bool { return x == 1 })
		noDeadline = result{ok, p.Now()}
		ok = c.WaitUntil(p, 50, func() bool { return true })
		pastTrue = result{ok, p.Now()}
		ok = c.WaitUntil(p, 50, func() bool { return false })
		pastFalse = result{ok, p.Now()}
		ok = c.WaitUntil(p, 160, func() bool { return false })
		expired = result{ok, p.Now()}
		e.At(200, func() {
			x = 2
			c.Broadcast()
		})
		ok = c.WaitUntil(p, 300, func() bool { return x == 2 })
		met = result{ok, p.Now()}
	})
	e.Run()
	for name, got := range map[string]struct{ got, want result }{
		"no deadline":      {noDeadline, result{true, 100}},
		"past, pred true":  {pastTrue, result{true, 100}},
		"past, pred false": {pastFalse, result{false, 100}},
		"expired":          {expired, result{false, 160}},
		"met":              {met, result{true, 200}},
	} {
		if got.got != got.want {
			t.Errorf("%s: got %+v, want %+v", name, got.got, got.want)
		}
	}
}

// Property: a FIFO delivers exactly the multiset of values put, in order,
// for any interleaving of producer/consumer delays.
func TestFIFOConservationProperty(t *testing.T) {
	f := func(prodDelays, consDelays []uint8) bool {
		if len(prodDelays) == 0 {
			return true
		}
		if len(prodDelays) > 100 {
			prodDelays = prodDelays[:100]
		}
		e := NewEngine()
		q := NewFIFO[int](e, "q", 3)
		var got []int
		e.Spawn("p", func(p *Proc) {
			for i, d := range prodDelays {
				p.Sleep(Duration(d))
				q.put(p, i)
			}
			q.Close()
		})
		e.Spawn("c", func(p *Proc) {
			j := 0
			for {
				if j < len(consDelays) {
					p.Sleep(Duration(consDelays[j]))
				}
				j++
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		e.Run()
		if len(got) != len(prodDelays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: semaphore count never goes negative and never exceeds
// initial + releases.
func TestSemaphoreInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		e := NewEngine()
		s := NewSemaphore(e, "s", 2)
		ok := true
		e.Spawn("ops", func(p *Proc) {
			acquired, released := 0, 0
			for _, acq := range ops {
				if acq {
					if s.count == 0 {
						continue // Acquire would block
					}
					s.Acquire(p)
					acquired++
				} else {
					s.Release()
					released++
				}
				if s.count < 0 || s.count != 2-acquired+released {
					ok = false
				}
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

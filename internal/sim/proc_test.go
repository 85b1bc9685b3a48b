package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(500)
		wake = p.Now()
	})
	e.Run()
	if wake != 500 {
		t.Fatalf("woke at %v, want 500", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", e.LiveProcs())
	}
}

// An event queued for the instant a sleep ends was scheduled first, so
// it fires before the sleeper wakes; a sleep that ends before the queue's
// head wakes in place, ahead of it.
func TestSleepTieFiresQueuedEventFirst(t *testing.T) {
	for _, c := range []struct {
		d       Duration
		want    string
		inPlace int64
	}{
		{d: 10, want: "event sleeper", inPlace: 0},
		{d: 9, want: "sleeper event", inPlace: 1},
	} {
		e := NewEngine()
		var order []string
		e.At(10, func() { order = append(order, "event") })
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(c.d)
			order = append(order, "sleeper")
		})
		e.Run()
		if got := strings.Join(order, " "); got != c.want || e.inPlace != c.inPlace {
			t.Fatalf("Sleep(%v) with an event at 10: order %q with %d in-place wakeups, want %q with %d",
				c.d, got, e.inPlace, c.want, c.inPlace)
		}
	}
}

// A sleep that ends past the running RunUntil's limit parks, and a later
// RunUntil wakes it on schedule; one that ends at the limit wakes in
// place.
func TestSleepPastLimitParks(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(50)
		wakes = append(wakes, p.Now())
		p.Sleep(100)
		wakes = append(wakes, p.Now())
	})
	if now := e.RunUntil(50); now != 50 || len(wakes) != 1 || e.inPlace != 1 {
		t.Fatalf("RunUntil(50) returned %v with wakes %v and %d in-place wakeups; want 50, [50], 1", now, wakes, e.inPlace)
	}
	if e.RunUntil(100); len(wakes) != 1 {
		t.Fatalf("sleeper woke at %v before its wakeup at 150", wakes[1])
	}
	if e.Run(); len(wakes) != 2 || wakes[1] != 150 || e.inPlace != 1 {
		t.Fatalf("wakes %v with %d in-place wakeups, want [50 150] with 1", wakes, e.inPlace)
	}
}

// A wakeup taken in place moves the clock and counts in Events() and
// Switches() exactly as a parked one, and draws the same seq: stepping a
// run in limits shorter than each sleep parks every wakeup, and ends in
// the same state as one Run that takes them all in place.
func TestInPlaceSleepCountsAsParked(t *testing.T) {
	run := func(chunked bool) *Engine {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(10)
			}
		})
		if chunked {
			for limit := Time(5); e.LiveProcs() > 0; limit += 10 {
				e.RunUntil(limit)
			}
		}
		e.Run()
		return e
	}
	parked, inPlace := run(true), run(false)
	if parked.inPlace != 0 || inPlace.inPlace != 5 {
		t.Fatalf("%d and %d in-place wakeups, want 0 and 5", parked.inPlace, inPlace.inPlace)
	}
	for _, e := range []*Engine{parked, inPlace} {
		if e.Now() != 50 || e.Events() != 6 || e.Switches() != 6 || e.seq != 6 {
			t.Fatalf("now %v, %d events, %d switches, seq %d; want 50, 6, 6, 6",
				e.Now(), e.Events(), e.Switches(), e.seq)
		}
	}
}

// A chain of charges taken through AdvanceInPlace, resuming from one
// queued event whenever another fires first, leaves the clock, Events()
// and seq where a proc sleeping the same durations leaves them. Events
// at 5, 20 and 21 make some charges park in both runs.
func TestAdvanceInPlaceMatchesSleep(t *testing.T) {
	durs := []Duration{3, 0, 7, 10, 1, 25, 4, 0}
	others := func(e *Engine) {
		for _, at := range []Time{5, 20, 21} {
			e.At(at, func() {})
		}
	}
	slept := NewEngine()
	others(slept)
	slept.Spawn("sleeper", func(p *Proc) {
		for _, d := range durs {
			p.Sleep(d)
		}
	})
	slept.Run()

	chained := NewEngine()
	others(chained)
	i := 0
	var stage func(any)
	stage = func(any) {
		for i < len(durs) {
			at := chained.Now().Add(durs[i])
			i++
			if !chained.AdvanceInPlace(at) {
				chained.AtArg(at, stage, nil)
				return
			}
		}
	}
	chained.AtArg(0, stage, nil) // the sleeper's first step
	chained.Run()

	if chained.inPlace == 0 || chained.inPlace == int64(len(durs)) {
		t.Fatalf("%d of %d charges in place; the case needs some of each", chained.inPlace, len(durs))
	}
	if chained.Now() != slept.Now() || chained.Events() != slept.Events() ||
		chained.seq != slept.seq || chained.inPlace != slept.inPlace {
		t.Fatalf("chain: now %v, %d events, seq %d, %d in place; sleep: %v, %d, %d, %d",
			chained.Now(), chained.Events(), chained.seq, chained.inPlace,
			slept.Now(), slept.Events(), slept.seq, slept.inPlace)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				p.Sleep(10)
			}
		})
	}
	e.Run()
	want := "abcabcabc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("interleaving = %q, want %q", got, want)
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
	p := e.Spawn("faulty", func(p *Proc) {
		p.Sleep(10)
		panic(boom)
	})
	live := e.LiveProcs()
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v from Run, want the body's own panic value", got)
	}
	if !p.Done() {
		t.Fatal("panicked proc not done")
	}
	if e.LiveProcs() != live-1 {
		t.Fatalf("live procs = %d, want %d", e.LiveProcs(), live-1)
	}
}

// A finished proc that is still referenced (by the registry, a test, a
// struct field) must not keep its body's captures reachable.
func TestFinishedProcReleasesCaptures(t *testing.T) {
	e := NewEngine()
	freed := make(chan struct{})
	p := func() *Proc {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { close(freed) })
		return e.Spawn("holder", func(p *Proc) {
			p.Sleep(1)
			captured[0]++
		})
	}()
	e.Run()
	if !p.Done() {
		t.Fatal("proc did not finish")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(p)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("finished proc still pins the values its body captured")
}

func TestProcBlockingFromEventContextPanics(t *testing.T) {
	e := NewEngine()
	var p *Proc
	p = e.Spawn("x", func(p *Proc) { p.Sleep(1000) })
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Sleep from event context did not panic")
			}
		}()
		p.Sleep(5) // wrong context: p is not running
	})
	e.Run()
}

func TestWaitQueueFIFOOrder(t *testing.T) {
	e := NewEngine()
	wq := NewWaitQueue(e, "q")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Duration(i)) // stagger arrival
			wq.Wait(p)
			order = append(order, i)
		})
	}
	e.At(100, func() {
		if wq.Len() != 5 {
			t.Errorf("queue length = %d, want 5", wq.Len())
		}
		wq.WakeAll()
	})
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestWaitQueueWakeOne(t *testing.T) {
	e := NewEngine()
	wq := NewWaitQueue(e, "q")
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			wq.Wait(p)
			woken++
		})
	}
	e.At(10, func() {
		if !wq.WakeOne() {
			t.Error("WakeOne found no waiter")
		}
	})
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if e.LiveProcs() != 2 {
		t.Fatalf("live procs = %d, want 2 still blocked", e.LiveProcs())
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEngine()
	wq := NewWaitQueue(e, "q")
	var timedOut, wokenInTime bool
	e.Spawn("t", func(p *Proc) {
		timedOut = !wq.WaitTimeout(p, 100)
	})
	e.Spawn("w", func(p *Proc) {
		wokenInTime = wq.WaitTimeout(p, 10000)
	})
	e.At(200, func() { wq.WakeOne() })
	e.Run()
	if !timedOut {
		t.Error("first waiter should have timed out at 100")
	}
	if !wokenInTime {
		t.Error("second waiter should have been woken at 200")
	}
}

func TestWaitTimeoutWokenCancelsTimer(t *testing.T) {
	e := NewEngine()
	wq := NewWaitQueue(e, "q")
	wakes := 0
	e.Spawn("w", func(p *Proc) {
		if wq.WaitTimeout(p, 1000) {
			wakes++
		}
		p.Sleep(5000) // survive past the original timeout instant
		wakes++
	})
	e.At(10, func() { wq.WakeOne() })
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2 (woken once, no spurious timeout)", wakes)
	}
}

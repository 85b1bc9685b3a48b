package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// logAt returns an event that appends name@now to log, checking that it
// fires with no current process, as an event from RunUntil's loop does.
func logAt(t *testing.T, e *Engine, log *[]string, name string) func() {
	return func() {
		if e.cur != nil {
			t.Errorf("event %s fired with %q as the current process", name, e.cur.name)
		}
		*log = append(*log, fmt.Sprintf("%s@%d", name, e.now))
	}
}

// A blocked proc whose wakeup has only plain events queued ahead of it
// fires them itself, in (at, seq) order, and takes its wakeup without a
// coroutine switch: a Sleep, a Wait that an event ahead wakes, and a
// WaitTimeout whose timer comes up behind events. An event queued for
// the wakeup instant before the wakeup still fires first, and one
// queued for it afterwards fires after; a Wait's wakeup is queued only
// when the event at 10 wakes it, so it fires after both.
func TestWaitFiresPlainEventsAhead(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait func(e *Engine, p *Proc, log *[]string) // blocks p until 10
		want string
	}{
		{"Sleep", func(e *Engine, p *Proc, log *[]string) {
			p.Sleep(10)
		}, "pre@3 a@5 tie@10 wake@10 late@10"},
		{"Wait", func(e *Engine, p *Proc, log *[]string) {
			wq := NewWaitQueue(e, "q")
			e.At(10, func() { wq.WakeOne() })
			wq.Wait(p)
		}, "pre@3 a@5 tie@10 late@10 wake@10"},
		{"WaitTimeout", func(e *Engine, p *Proc, log *[]string) {
			if NewWaitQueue(e, "q").WaitTimeout(p, 10) {
				*log = append(*log, "woken")
			}
		}, "pre@3 a@5 tie@10 wake@10 late@10"},
	} {
		e := NewEngine()
		var log []string
		e.At(3, logAt(t, e, &log, "pre"))
		var parks, switches int64
		e.Spawn("waiter", func(p *Proc) {
			e.At(5, func() {
				logAt(t, e, &log, "a")()
				e.At(10, logAt(t, e, &log, "late"))
			})
			e.At(10, logAt(t, e, &log, "tie"))
			parks, switches = e.Parks(), e.Switches()
			tc.wait(e, p, &log)
			parks, switches = e.Parks()-parks, e.Switches()-switches
			log = append(log, fmt.Sprintf("wake@%d", p.Now()))
		})
		e.Run()
		if got := strings.Join(log, " "); got != tc.want {
			t.Errorf("%s: fired %q, want %q", tc.name, got, tc.want)
		}
		if parks != 0 || switches != 1 {
			t.Errorf("%s: the wait took %d parks and %d switches, want 0 and 1", tc.name, parks, switches)
		}
	}
}

// A blocked proc never steps another proc from its own stack: when the
// other's step comes up ahead of its wakeup, it parks, once, and the
// other proc runs from the event loop.
func TestWaitParksAtAnotherProcsStep(t *testing.T) {
	e := NewEngine()
	var log []string
	e.At(3, logAt(t, e, &log, "pre"))
	e.At(7, logAt(t, e, &log, "mid"))
	var waiter *Proc
	e.Spawn("other", func(p *Proc) {
		p.Sleep(5)
		if e.waiting != nil {
			t.Errorf("other ran while %q was firing events ahead of its wakeup", e.waiting.name)
		}
		log = append(log, fmt.Sprintf("other@%d", p.Now()))
	})
	var parks int64
	waiter = e.Spawn("waiter", func(p *Proc) {
		parks = e.Parks()
		p.Sleep(10)
		parks = e.Parks() - parks
		log = append(log, fmt.Sprintf("wake@%d", p.Now()))
	})
	e.Run()
	if got, want := strings.Join(log, " "), "pre@3 other@5 mid@7 wake@10"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
	// One park resumes other at 5, the other resumes the waiter at 10.
	if parks != 2 || !waiter.Done() {
		t.Fatalf("%d parks during the sleep, want 2 (other's and the waiter's own)", parks)
	}
}

// A panic in an event that a blocked proc fires leaves Run with its own
// value, runs none of the proc's defers and leaves it blocked; a later
// Run resumes it at its wakeup as if the event had fired after it
// parked.
func TestPanicInEventAheadSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.At(5, func() { panic(boom) })
	deferred := false
	var wake Time
	p := e.Spawn("waiter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(10)
		wake = p.Now()
	})
	live := e.LiveProcs()
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v from Run, want the event's own panic value", got)
	}
	if deferred || p.Done() || e.LiveProcs() != live {
		t.Fatalf("after the panic: defers ran %v, done %v, %d live procs; want false, false, %d",
			deferred, p.Done(), e.LiveProcs(), live)
	}
	if b := e.BlockedProcs(); len(b) != 1 || b[0] != "waiter blocked on sleep" {
		t.Fatalf("blocked procs %q, want the waiter blocked on sleep", b)
	}
	if e.Run(); wake != 10 || !deferred || !p.Done() {
		t.Fatalf("a later Run woke the waiter at %v (defers ran %v, done %v), want 10, true, true",
			wake, deferred, p.Done())
	}
}

// A runtime.Goexit (a t.FailNow, say) in an event that a blocked proc
// fires ends the goroutine that called Run, runs none of the proc's
// defers and leaves it blocked.
func TestGoexitInEventAheadEndsRun(t *testing.T) {
	e := NewEngine()
	e.At(5, func() { runtime.Goexit() })
	deferred := false
	e.Spawn("waiter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(10)
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned || deferred || e.LiveProcs() != 1 {
		t.Fatalf("Run returned %v, defers ran %v, %d live procs; want false, false, 1",
			returned, deferred, e.LiveProcs())
	}
}

// RunUntil's limit stops a blocked proc's firing where it stops the
// event loop: the run returns at the last event within the limit, and
// a later run resumes the proc at its original wakeup.
func TestWaitStopsAtRunLimit(t *testing.T) {
	e := NewEngine()
	var log []string
	for _, at := range []Time{3, 8, 12} {
		e.At(at, logAt(t, e, &log, "e"))
	}
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(10)
		log = append(log, fmt.Sprintf("wake@%d", p.Now()))
	})
	if now := e.RunUntil(9); now != 8 || strings.Join(log, " ") != "e@3 e@8" {
		t.Fatalf("RunUntil(9) returned %v having fired %q, want 8 and \"e@3 e@8\"", now, log)
	}
	parks := e.Parks()
	if now := e.Run(); now != 12 || strings.Join(log, " ") != "e@3 e@8 wake@10 e@12" {
		t.Fatalf("Run returned %v having fired %q, want 12 and \"e@3 e@8 wake@10 e@12\"", now, log)
	}
	if n := e.Parks() - parks; n != 1 {
		t.Fatalf("the later run resumed the waiter with %d parks, want 1", n)
	}
}

// A proc whose idle timer is all that is left once the events ahead of
// it have fired parks, and the run ends at quiescence as before; with
// work pending, it takes the tick without parking.
func TestWaitStopsAtQuiescence(t *testing.T) {
	for _, pending := range []bool{false, true} {
		e := NewEngine()
		ticks := 0
		var parks int64
		e.At(5, func() {})
		e.Spawn("sweeper", func(p *Proc) {
			parks = e.Parks()
			p.SleepIdle(10, func() bool { return pending })
			parks = e.Parks() - parks
			ticks++
		})
		now := e.Run()
		switch {
		case !pending && (now != 5 || ticks != 0 || e.LiveProcs() != 1):
			t.Fatalf("no work: run ended at %v with %d ticks and %d live procs, want 5, 0, 1", now, ticks, e.LiveProcs())
		case pending && (now != 10 || ticks != 1 || parks != 0):
			t.Fatalf("work pending: run ended at %v with %d ticks and %d parks, want 10, 1, 0", now, ticks, parks)
		}
	}
}

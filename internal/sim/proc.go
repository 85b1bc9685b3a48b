//go:build go1.23

// The constraint raises this file's language version to go1.23 for
// iter.Pull; the module's go line stays at 1.22 so the nested benchmark
// module, which requires this one, builds unchanged.

package sim

import (
	"fmt"
	"iter"
	"runtime"
)

// Proc is a simulated process: an iter.Pull coroutine that runs under the
// engine's run-to-yield discipline. Exactly one Proc executes at a time; a
// Proc gives up control only by calling a blocking primitive (Sleep, Wait
// on a queue, Get on a FIFO, ...). Model code inside a Proc therefore
// never races with other model code. A blocked Proc first fires the
// plain events queued ahead of its wakeup on its own stack, and parks
// only when the event loop must go on without it (see yield).
type Proc struct {
	eng  *Engine
	name string
	body func(p *Proc)           // the body, until its first step
	next func() (struct{}, bool) // resumes the body; nil once done
	park func(struct{}) bool     // suspends the body; nil once done
	done bool
	w    waiter // p's parking on a wait queue; a proc waits on one at a time

	// blockedOn is a human-readable description of what the process is
	// waiting for; used by deadlock diagnostics.
	blockedOn string
}

// Spawn creates a process running body and schedules its first step at the
// current instant. The body runs with the engine's clock alternating
// between it and other events. The coroutine itself is created at that
// first step, so building a model that spawns many processes stays cheap.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.liveProc++
	e.procs = append(e.procs, p)
	if len(e.procs) > 64 && len(e.procs) > 4*e.liveProc {
		// Compact the registry when most entries are finished.
		live := e.procs[:0]
		for _, q := range e.procs {
			if !q.done {
				live = append(live, q)
			}
		}
		e.procs = live
	}
	e.atStep(e.now, start, p)
	return p
}

// start is the fn of a proc's first step, whose arg is the *Proc: it
// creates the coroutine and steps it.
func start(a any) {
	p := a.(*Proc)
	// stop is unused: a proc still parked when its run ends stays parked.
	p.next, _ = iter.Pull(p.run)
	p.eng.step(p)
}

// run is the coroutine's function. It takes the body out of p, so a
// finished proc that is still referenced pins nothing the body captured.
func (p *Proc) run(park func(struct{}) bool) {
	p.park = park
	defer p.finish()
	body := p.body
	p.body = nil
	body(p)
}

// finish runs deferred at the end of p's body, inside the coroutine, also
// when the body panics; iter.Pull then raises the panic from step on the
// engine's side. Dropping next and park makes the finished coroutine, and
// everything its body captured, collectable even while p itself is still
// referenced.
func (p *Proc) finish() {
	p.done = true
	p.eng.liveProc--
	p.next, p.park = nil, nil
}

// step transfers control to p and returns when p yields or finishes.
// It must be called only from an event. When p itself fired the event
// while blocked (see yield), p takes the step on its own stack once the
// event returns, and the switch needs no coroutine resume. Otherwise the
// event runs from RunUntil's loop, and a panic that p kept from an event
// it fired before parking is raised again here.
func (e *Engine) step(p *Proc) {
	if p.done {
		return
	}
	e.switches++
	if p == e.waiting {
		return
	}
	e.cur = p
	e.parks++
	p.next()
	e.cur = nil
	if f := e.fault; f != nil {
		e.fault = nil
		if f == (goexit{}) {
			runtime.Goexit()
		}
		panic(f)
	}
}

// goexit stands in e.fault for a runtime.Goexit (a t.FailNow, say)
// called by an event that a blocked proc fired.
type goexit struct{}

// resume is the fn of every event that wakes a parked process; its arg is
// the *Proc, so a wakeup allocates nothing.
func resume(a any) {
	p := a.(*Proc)
	p.eng.step(p)
}

// yield blocks the calling process until the engine steps it again.
// Must be called from p's own body, with p's wakeup, if it has one,
// already queued. p first fires the plain events queued ahead of that
// wakeup itself (Engine.fireAhead), and if the wakeup comes up, p
// carries on without parking: the coroutine switch to the event loop
// and back would change nothing but the host time spent. A step counts
// as a switch either way.
func (p *Proc) yield() {
	if !p.eng.fireAhead(p) {
		p.park(struct{}{})
	}
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d of virtual time. Zero or negative d
// still lets already-scheduled same-instant events run first.
//
// When no event could fire before the wakeup, the wakeup is taken in
// place (see Engine.AdvanceInPlace): every step of a process is the last
// thing its event does, so the process carries on without parking, and
// the step counts as a switch as the parked wakeup's would.
func (p *Proc) Sleep(d Duration) {
	p.checkCurrent("Sleep")
	e := p.eng
	at := e.now.Add(max(d, 0))
	if e.AdvanceInPlace(at) {
		e.switches++
		return
	}
	p.blockedOn = "sleep"
	e.atStep(at, resume, p)
	p.yield()
	p.blockedOn = ""
}

// SleepIdle is Sleep on an idle timer: the wakeup does not by itself
// keep a run going. A periodic housekeeping loop sleeps this way, with
// pending reporting whether it has work for its next tick; once every
// queued event is such a timer with no work, the run is quiescent and
// RunUntil returns. The timer is scheduled exactly as Sleep's would be,
// so while the run goes on it fires at the same instant and breaks ties
// with other same-instant events the same way.
func (p *Proc) SleepIdle(d Duration, pending func() bool) {
	p.checkCurrent("SleepIdle")
	p.blockedOn = "sleep"
	p.eng.atIdle(p.eng.now.Add(max(d, 0)), p, pending)
	p.yield()
	p.blockedOn = ""
}

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.done }

// checkCurrent panics if the caller is not the engine's currently
// running process — i.e. a blocking primitive was invoked from
// event-callback context, which would deadlock the engine.
func (p *Proc) checkCurrent(op string) {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: %s called on proc %q which is not the running process", op, p.name))
	}
}

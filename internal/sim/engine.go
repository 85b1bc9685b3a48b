package sim

import (
	"fmt"
	"runtime"
)

// event is a scheduled callback in the engine's slot table: firing it
// calls fn(arg). A slot is recycled once its event leaves the queue,
// fired or cancelled; gen counts the recycles, so a handle taken before
// one no longer matches the slot.
type event struct {
	fn    func(any)
	arg   any
	gen   uint64
	pos   int32 // the index of the event's entry in the heap
	idle  bool  // an idle timer (see Proc.SleepIdle), not a busy event
	steps bool  // steps the *Proc in arg (see atStep); a plain event if false
}

// call is the fn of an event scheduled with At: its arg is the func().
// A func value fits in an interface without allocating, so At costs no
// more than AtArg.
func call(a any) { a.(func())() }

// entry is a queued event's heap key. Events with equal fire times run in
// the order they were scheduled (seq breaks ties), which keeps the
// simulation deterministic. Entries are held by value, so ordering the
// heap never dereferences an event.
type entry struct {
	at  Time
	seq uint64
	ref int32 // slot index
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// idler is a queued idle timer and its owner's pending-work test.
type idler struct {
	ref     int32
	pending func() bool
}

// eventHeap is a binary min-heap of entries ordered by (at, seq). Each
// entry's slot records the entry's index (event.pos), so Cancel removes
// an entry where it stands. Both sifts move a hole rather than
// swapping, so each level costs one copy and one index store.
type eventHeap []entry

// up places x at or above the hole at j, moving each later parent down
// a level until x is no earlier than its parent.
func (q eventHeap) up(slots []event, j int, x entry) {
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(q[i]) {
			break
		}
		q[j] = q[i]
		slots[q[j].ref].pos = int32(j)
		j = i
	}
	q[j] = x
	slots[x.ref].pos = int32(j)
}

// down places x at or below the hole at i, moving the smaller child up
// a level until x is no later than both children.
func (q eventHeap) down(slots []event, i int, x entry) {
	n := len(q)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].before(q[j]) {
			j = r
		}
		if !q[j].before(x) {
			break
		}
		q[i] = q[j]
		slots[q[i].ref].pos = int32(i)
		i = j
	}
	q[i] = x
	slots[x.ref].pos = int32(i)
}

// Engine owns the virtual clock and the event queue. All simulation state
// is mutated either from event callbacks or from the single currently
// running process, so no locking is needed anywhere in the model.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	slots   []event // every event slot, queued or free
	free    []int32 // recycled slots, reused last-in first-out
	busy    int     // queued busy events
	idlers  []idler // queued idle timers
	running bool

	cur      *Proc // process currently executing, nil while in the event loop
	waiting  *Proc // blocked process firing the events ahead of its wakeup
	fault    any   // what an event fired by waiting raised, for step to raise again
	liveProc int   // spawned but not yet finished processes
	procs    []*Proc

	trace    *tracer
	rand     *Rand
	deadline Time
	limit    Time // the running RunUntil's limit
	yields   bool // the running RunUntil yields its thread (GOMAXPROCS=1)
	toYield  int  // events left to fire before the next yield

	wakeups  int64 // processes resumed from wait queues (herd diagnostics)
	fired    int64 // events fired
	switches int64 // proc steps
	parks    int64 // coroutine resumes
	inPlace  int64 // wakeups taken in place (see AdvanceInPlace)
}

// Wakeups reports how many processes have been resumed from wait queues
// since the engine was created. Regression tests diff this counter to
// assert that an operation's wakeup cost does not scale with the number
// of unrelated blocked processes.
func (e *Engine) Wakeups() int64 { return e.wakeups }

// Events reports how many events have fired since the engine was
// created; cancelled events are not counted.
func (e *Engine) Events() int64 { return e.fired }

// Switches reports how many times a process has been stepped (started or
// resumed) since the engine was created.
func (e *Engine) Switches() int64 { return e.switches }

// Parks reports how many times a process's coroutine has been resumed:
// the switches that left the event loop for the process's own stack.
// A step taken without one (see AdvanceInPlace) counts as a switch but
// not as a park.
func (e *Engine) Parks() int64 { return e.parks }

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	e := &Engine{deadline: Forever}
	e.rand = NewRand(1)
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rand }

// Seed reseeds the engine's random source.
func (e *Engine) Seed(s uint64) { e.rand = NewRand(s) }

// Event is a handle to a scheduled callback; it can be cancelled. It
// names the event's slot and the slot's generation, so once the event has
// fired or been cancelled the handle matches nothing.
type Event struct {
	eng *Engine
	ref int32
	gen uint64
}

// queued returns the handle's event if it is still queued, else nil.
func (h Event) queued() *event {
	if h.eng == nil {
		return nil
	}
	if ev := &h.eng.slots[h.ref]; ev.gen == h.gen {
		return ev
	}
	return nil
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The event's entry leaves the queue
// at once, and its slot is recycled.
func (h Event) Cancel() {
	if ev := h.queued(); ev != nil {
		e := h.eng
		e.busy-- // idle timers have no handle, so this is a busy one
		e.remove(int(ev.pos))
		e.recycle(h.ref)
	}
}

// Pending reports whether the event is still scheduled to fire.
func (h Event) Pending() bool { return h.queued() != nil }

// At schedules fn to run at instant t. Scheduling in the past panics: it
// indicates a model bug that would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event { return e.AtArg(t, call, fn) }

// AtArg schedules fn(arg) to run at instant t, like At. A hot path binds
// fn once and passes what changes per event (a frame, a segment) as arg,
// so scheduling allocates no closure: a pointer fits in an interface
// without allocating.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Event {
	ref := e.schedule(t, fn, arg, false)
	e.busy++
	return Event{eng: e, ref: ref, gen: e.slots[ref].gen}
}

// atStep schedules fn(p), an event that steps p, like AtArg. A blocked
// process fires the plain events queued ahead of its wakeup itself, but
// never one marked this way for another process (see Proc.yield).
func (e *Engine) atStep(t Time, fn func(any), p *Proc) Event {
	h := e.AtArg(t, fn, p)
	e.slots[h.ref].steps = true
	return h
}

// atIdle schedules p's resume at t as an idle timer whose owner reports
// pending work through pending.
func (e *Engine) atIdle(t Time, p *Proc, pending func() bool) {
	ref := e.schedule(t, resume, p, true)
	e.slots[ref].steps = true
	e.idlers = append(e.idlers, idler{ref, pending})
}

// schedule queues fn(arg) at t in a free slot and returns the slot. Busy
// events and idle timers draw from the same seq counter, so an idle timer
// ties with other same-instant events exactly as a busy one would. The
// slot table grows only when every slot is queued, so it never holds
// more slots than the run's longest queue.
func (e *Engine) schedule(t Time, fn func(any), arg any, idle bool) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ref int32
	if n := len(e.free); n > 0 {
		ref = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ref = int32(len(e.slots))
		e.slots = append(e.slots, event{})
	}
	ev := &e.slots[ref]
	ev.fn, ev.arg, ev.idle = fn, arg, idle
	e.events = append(e.events, entry{})
	e.events.up(e.slots, len(e.events)-1, entry{at: t, seq: e.seq, ref: ref})
	e.seq++
	return ref
}

// remove takes the entry at index i out of the queue: the last entry
// fills the hole and sifts up or down from it.
func (e *Engine) remove(i int) {
	n := len(e.events) - 1
	x := e.events[n]
	q := e.events[:n]
	e.events = q
	if i == n {
		return
	}
	if i > 0 && x.before(q[(i-1)/2]) {
		q.up(e.slots, i, x)
	} else {
		q.down(e.slots, i, x)
	}
}

// recycle returns a slot that has left the queue to the free list; the
// generation bump disarms every handle to the event it held.
func (e *Engine) recycle(ref int32) {
	ev := &e.slots[ref]
	ev.fn, ev.arg, ev.idle, ev.steps = nil, nil, false, false
	ev.gen++
	e.free = append(e.free, ref)
}

// AdvanceInPlace takes a wakeup due at `at` without queuing it, when no
// queued event could fire first: the clock moves to at, and seq and the
// fired count advance exactly as if the wakeup had been queued and then
// fired. It reports false, changing nothing, when the head of the queue
// is due no later than at, or when at lies past the running RunUntil's
// limit. The head is always an event that will fire, since a cancelled
// one leaves the queue at once. A queued event at the same instant was
// scheduled earlier, so it fires first: only a head strictly later lets
// the wakeup run in place.
//
// The caller must be the last thing its event does — a proc's step
// (Proc.Sleep) or an event-driven activity's chain of stages — so that
// the queued wakeup would have been the very next event to fire.
func (e *Engine) AdvanceInPlace(at Time) bool {
	if at > e.limit || len(e.events) > 0 && at >= e.events[0].at {
		return false
	}
	e.seq++
	e.fired++
	e.inPlace++
	e.now = at
	return true
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Run executes events until the queue is empty or the run is quiescent.
// It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with fire times <= limit, and returns early
// once the run is quiescent (see Idle). The clock never advances past
// the last fired event. Quiescence ends a run without changing what it
// computes: the idle timers left queued would only have ticked with
// nothing to do, and they stay queued, so a later RunUntil resumes them
// on their original schedule.
//
// On one processor (GOMAXPROCS=1) the run yields its thread to the Go
// scheduler every yieldEvery events. A run is one goroutine that never
// blocks, so there a concurrent collection's mark worker would
// otherwise wait for the runtime's 10 ms preemption: the mark phase
// stretches, and what the run allocates meanwhile survives the cycle.
// With more processors the mark worker runs on an idle one, and a
// yield would only wake another thread.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.limit = limit
	defer func() { e.running = false }()
	e.yields, e.toYield = runtime.GOMAXPROCS(0) == 1, yieldEvery
	e.drain(nil)
	return e.now
}

// drain fires the queue's head events in (at, seq) order for as long as
// each may fire: it lies within the running RunUntil's limit, and the
// run is not quiescent. RunUntil drains with p nil. A blocked process p
// drains on its own stack (see fireAhead): it stops before an event
// that steps another process, and right after the one that steps p,
// reporting true. Both count toward the next yield of the thread.
func (e *Engine) drain(p *Proc) (woke bool) {
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > e.limit || e.busy == 0 && !e.idleWork() {
			break
		}
		ev := e.slots[next.ref]
		if p != nil && ev.steps {
			if ev.arg != any(p) {
				break
			}
			woke = true
		}
		if e.yields {
			if e.toYield--; e.toYield == 0 {
				e.toYield = yieldEvery
				runtime.Gosched()
			}
		}
		e.remove(0)
		if ev.idle {
			e.dropIdler(next.ref)
		} else {
			e.busy--
		}
		e.recycle(next.ref)
		e.now = next.at
		e.fired++
		ev.fn(ev.arg)
		if woke {
			break
		}
	}
	return woke
}

// fireAhead drains the queue on the blocked process p's own stack, and
// reports whether p's own wakeup came up: the event that steps p then
// runs too, and p carries on without a coroutine switch. It stops,
// reporting false, wherever RunUntil's loop would carry on without p:
// at an event that steps another process, past the limit, or at
// quiescence. The events run with no current process, as they would
// from RunUntil, so one that blocks still panics. Firing an event ahead
// of p's wakeup rather than after p parks changes no event's instant or
// order: every event fires in (at, seq) order either way.
//
// An event fired here that panics or calls runtime.Goexit must not
// unwind p's body, whose defers would run as if p had failed. fireAhead
// keeps what the event raised and parks p, and step raises it again
// from the event loop: the panic leaves Run with its value, and p stays
// blocked as if the event had fired after p parked. A later run that
// steps p resumes it from its wakeup.
func (e *Engine) fireAhead(p *Proc) (woke bool) {
	e.cur, e.waiting = nil, p
	clean := false
	defer func() {
		e.waiting = nil
		if !clean {
			if e.fault = recover(); e.fault == nil {
				e.fault = goexit{}
			}
			p.park(struct{}{})
			woke = true
		}
	}()
	woke = e.drain(p)
	clean = true
	if woke {
		e.cur = p
	}
	return woke
}

// yieldEvery is how many events a run on one processor fires between
// yields of its thread; a yield with nothing else to run costs well
// under a nanosecond per event.
const yieldEvery = 256

// Idle reports whether the run is quiescent: every queued event is an
// idle timer whose owner reports no pending work.
// Blocked processes may still exist; with no busy event left they can
// never resume, so the simulation is complete (or deadlocked — see
// BlockedProcs). The test costs nothing while any busy event is queued;
// otherwise it asks each queued idle timer's owner.
func (e *Engine) Idle() bool { return e.busy == 0 && !e.idleWork() }

// idleWork reports whether any queued idle timer's owner has work.
func (e *Engine) idleWork() bool {
	for _, it := range e.idlers {
		if it.pending() {
			return true
		}
	}
	return false
}

// dropIdler forgets a fired idle timer; it runs before the timer's slot
// is recycled and can be reused by another idle timer.
func (e *Engine) dropIdler(ref int32) {
	for i, it := range e.idlers {
		if it.ref == ref {
			e.idlers = append(e.idlers[:i], e.idlers[i+1:]...)
			return
		}
	}
}

// LiveProcs reports how many spawned processes have not yet finished.
// A nonzero count with an idle queue indicates blocked (deadlocked or
// simply never-signalled) processes.
func (e *Engine) LiveProcs() int { return e.liveProc }

// BlockedProcs describes every live process and what it is blocked on —
// the first thing to print when a simulation ends earlier than expected.
func (e *Engine) BlockedProcs() []string {
	var out []string
	for _, p := range e.procs {
		if p.done {
			continue
		}
		on := p.blockedOn
		if on == "" {
			on = "(runnable)"
		}
		out = append(out, p.name+" blocked on "+on)
	}
	return out
}

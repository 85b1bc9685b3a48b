package sim

import (
	"fmt"
	"runtime"
)

// event is a scheduled callback in the engine's slot table: firing it
// calls fn(arg). A slot is recycled once its event leaves the queue,
// fired or discarded; gen counts the recycles, so a handle taken before
// one no longer matches the slot.
type event struct {
	fn   func(any)
	arg  any
	gen  uint64
	dead bool // cancelled
	idle bool // an idle timer (see Proc.SleepIdle), not a busy event
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

// eventHeap is a binary min-heap of entries ordered by (at, seq). Both
// sifts move a hole rather than swapping, so each level costs one copy.
type eventHeap []entry

func (h *eventHeap) push(x entry) {
	q := append(*h, x)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = x
	*h = q
}

func (h *eventHeap) pop() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	if n > 0 {
		q.down(0, x)
	}
	*h = q
	return top
}

// down places x at or below the hole at i, moving the smaller child up
// a level until x is no later than both children.
func (q eventHeap) down(i int, x entry) {
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
		i = j
	}
	q[i] = x
}

// heapify restores the heap order of any arrangement, bottom-up.
func (q eventHeap) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i, q[i])
	}
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
	busy    int     // queued busy events not yet fired or cancelled
	dead    int     // queued cancelled events, discarded by compact
	idlers  []idler // queued idle timers
	running bool

	cur      *Proc // process currently executing, nil while in the event loop
	liveProc int   // spawned but not yet finished processes
	procs    []*Proc

	trace    *Tracer
	rand     *Rand
	deadline Time
	limit    Time // the running RunUntil's limit

	wakeups  int64 // processes resumed from wait queues (herd diagnostics)
	fired    int64 // events fired
	switches int64 // proc steps
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
// fired or been discarded the handle matches nothing.
type Event struct {
	eng *Engine
	ref int32
	gen uint64
}

// queued returns the handle's event if it is still queued and not
// cancelled, else nil.
func (h Event) queued() *event {
	if h.eng == nil {
		return nil
	}
	if ev := &h.eng.slots[h.ref]; ev.gen == h.gen && !ev.dead {
		return ev
	}
	return nil
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. A cancelled event no longer keeps
// a run going. Its entry leaves the queue when it reaches the head, or
// earlier when cancelled entries outnumber the live ones (see compact).
func (h Event) Cancel() {
	if ev := h.queued(); ev != nil {
		e := h.eng
		ev.dead = true
		ev.fn, ev.arg = nil, nil
		e.busy-- // idle timers have no handle, so this is a busy one
		e.dead++
		if e.dead > compactMin && e.dead > len(e.events)-e.dead {
			e.compact()
		}
	}
}

// compactMin is how many cancelled entries the queue holds before compact
// runs at all; below it, discarding them at the head costs less.
const compactMin = 64

// compact drops every cancelled entry from the queue, recycling its slot,
// and rebuilds the heap bottom-up. Entries are ordered totally by
// (at, seq), so the rebuilt heap pops the live events in the same order
// as before. It runs once cancelled entries outnumber live ones, so its
// linear cost is paid for by at least as many Cancel calls, and a timer
// re-armed without ever firing (a TCP retransmission timeout) keeps the
// queue within twice its live size.
func (e *Engine) compact() {
	q := e.events[:0]
	for _, x := range e.events {
		if e.slots[x.ref].dead {
			e.recycle(x.ref)
		} else {
			q = append(q, x)
		}
	}
	clear(e.events[len(q):])
	q.heapify()
	e.events = q
	e.dead = 0
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

// atIdle queues fn(arg) at t as an idle timer whose owner reports
// pending work through pending.
func (e *Engine) atIdle(t Time, fn func(any), arg any, pending func() bool) {
	e.idlers = append(e.idlers, idler{e.schedule(t, fn, arg, true), pending})
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
	e.events.push(entry{at: t, seq: e.seq, ref: ref})
	e.seq++
	return ref
}

// recycle returns a slot that has left the queue to the free list; the
// generation bump disarms every handle to the event it held.
func (e *Engine) recycle(ref int32) {
	ev := &e.slots[ref]
	ev.fn, ev.arg, ev.dead, ev.idle = nil, nil, false, false
	ev.gen++
	e.free = append(e.free, ref)
}

// AdvanceInPlace takes a wakeup due at `at` without queuing it, when no
// queued event could fire first: the clock moves to at, and seq and the
// fired count advance exactly as if the wakeup had been queued and then
// fired. It reports false, changing nothing, when the head of the queue
// is due no later than at, or when at lies past the running RunUntil's
// limit. A queued event at the same instant was scheduled earlier, so it
// fires first: only a head strictly later lets the wakeup run in place.
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
// on their original schedule. A cancelled event at the head of the queue
// is discarded before the test, so a queue of them still drains.
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
	yield := runtime.GOMAXPROCS(0) == 1
	for n := 1; len(e.events) > 0; n++ {
		if yield && n%yieldEvery == 0 {
			runtime.Gosched()
		}
		next := e.events[0]
		ev := e.slots[next.ref]
		if next.at > limit || !ev.dead && e.busy == 0 && e.Idle() {
			break
		}
		e.events.pop()
		if ev.idle {
			e.dropIdler(next.ref)
		}
		e.recycle(next.ref)
		if ev.dead {
			e.dead--
			continue
		}
		if !ev.idle {
			e.busy--
		}
		e.now = next.at
		e.fired++
		ev.fn(ev.arg)
	}
	return e.now
}

// yieldEvery is how many events a run on one processor fires between
// yields of its thread; a yield with nothing else to run costs well
// under a nanosecond per event.
const yieldEvery = 256

// Idle reports whether the run is quiescent: every queued event is a
// cancelled one or an idle timer whose owner reports no pending work.
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

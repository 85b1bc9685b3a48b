package sim

import "fmt"

// event is a scheduled callback. Events with equal fire times run in the
// order they were scheduled (seq breaks ties), which keeps the simulation
// deterministic.
type event struct {
	at    Time
	seq   uint64
	fire  func()
	index int  // heap index
	dead  bool // cancelled
	idle  bool // an idle timer (see Proc.SleepIdle), not a busy event
}

// idler is a queued idle timer and its owner's pending-work test.
type idler struct {
	ev      *event
	pending func() bool
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// container/heap's algorithm on the concrete type, which spares the
// interface calls on the engine's hottest path.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	old[:n].down(0)
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

// Engine owns the virtual clock and the event queue. All simulation state
// is mutated either from event callbacks or from the single currently
// running process, so no locking is needed anywhere in the model.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	busy    int     // queued busy events not yet fired or cancelled
	idlers  []idler // queued idle timers
	running bool
	stopped bool

	cur      *Proc // process currently executing, nil while in the event loop
	liveProc int   // spawned but not yet finished processes
	procs    []*Proc

	trace    *Tracer
	rand     *Rand
	deadline Time

	wakeups  int64 // processes resumed from wait queues (herd diagnostics)
	fired    int64 // events fired
	switches int64 // proc steps
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

// Event is a handle to a scheduled callback; it can be cancelled.
type Event struct {
	eng *Engine
	ev  *event
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. A cancelled event no longer keeps
// a run going, although it stays queued until its time comes.
func (ev Event) Cancel() {
	if ev.ev != nil && !ev.ev.dead {
		ev.ev.dead = true
		if ev.ev.index >= 0 {
			ev.eng.busy-- // idle timers have no handle, so this is a busy one
		}
	}
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool {
	return ev.ev != nil && !ev.ev.dead && ev.ev.index >= 0
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// indicates a model bug that would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event {
	ev := e.schedule(t, fn, false)
	e.busy++
	return Event{eng: e, ev: ev}
}

// atIdle queues fn at t as an idle timer whose owner reports pending
// work through pending.
func (e *Engine) atIdle(t Time, fn func(), pending func() bool) {
	e.idlers = append(e.idlers, idler{e.schedule(t, fn, true), pending})
}

// schedule queues fn at t. Busy events and idle timers draw from the
// same seq counter, so an idle timer ties with other same-instant
// events exactly as a busy one would.
func (e *Engine) schedule(t Time, fn func(), idle bool) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &event{at: t, seq: e.seq, fire: fn, idle: idle}
	e.seq++
	e.events.push(ev)
	return ev
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Stop terminates the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with fire times <= limit, and returns early
// once the run is quiescent (see Idle). The clock never advances past
// the last fired event. Quiescence ends a run without changing what it
// computes: the idle timers left queued would only have ticked with
// nothing to do, and they stay queued, so a later RunUntil resumes them
// on their original schedule. Cancelled events at the head of the queue
// are discarded before the test, so a queue of them still drains.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped && len(e.events) > 0 {
		next := e.events[0]
		if next.at > limit || !next.dead && e.busy == 0 && e.Idle() {
			break
		}
		e.events.pop()
		if next.dead {
			continue
		}
		if next.idle {
			e.dropIdler(next)
		} else {
			e.busy--
		}
		e.now = next.at
		e.fired++
		next.fire()
	}
	return e.now
}

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

// dropIdler forgets a fired idle timer.
func (e *Engine) dropIdler(ev *event) {
	for i, it := range e.idlers {
		if it.ev == ev {
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

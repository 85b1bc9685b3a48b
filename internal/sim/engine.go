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
	running bool
	stopped bool

	cur      *Proc // process currently executing, nil while in the event loop
	liveProc int   // spawned but not yet finished processes
	procs    []*Proc

	trace    *Tracer
	rand     *Rand
	deadline Time

	wakeups int64 // processes resumed from wait queues (herd diagnostics)
}

// Wakeups reports how many processes have been resumed from wait queues
// since the engine was created. Regression tests diff this counter to
// assert that an operation's wakeup cost does not scale with the number
// of unrelated blocked processes.
func (e *Engine) Wakeups() int64 { return e.wakeups }

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
// already-cancelled event is a no-op.
func (ev Event) Cancel() {
	if ev.ev != nil && !ev.ev.dead {
		ev.ev.dead = true
	}
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool {
	return ev.ev != nil && !ev.ev.dead && ev.ev.index >= 0
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// indicates a model bug that would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &event{at: t, seq: e.seq, fire: fn}
	e.seq++
	e.events.push(ev)
	return Event{eng: e, ev: ev}
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

// RunUntil executes events with fire times <= limit. The clock never
// advances past the last fired event.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped && len(e.events) > 0 {
		next := e.events[0]
		if next.at > limit {
			break
		}
		e.events.pop()
		if next.dead {
			continue
		}
		e.now = next.at
		next.fire()
	}
	return e.now
}

// Idle reports whether no events remain. Blocked processes may still
// exist; with an empty queue they can never resume, so the simulation is
// complete (or deadlocked — see BlockedProcs).
func (e *Engine) Idle() bool { return len(e.events) == 0 }

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

package sim

// WaitQueue is the fundamental blocking primitive: processes park on it
// and are resumed in FIFO order by Wake calls. All higher-level
// primitives (FIFO, Semaphore, Cond) are built on it.
type WaitQueue struct {
	eng     *Engine
	waiters Queue[*Proc]
	label   string
}

// waiter is a proc's parking on a wait queue. It lives in the Proc: a proc
// waits on at most one queue at a time, so a wait allocates nothing. A
// parking has exactly one resumer: WakeOne, which cancels the timeout, or
// the timeout, which takes the proc off the queue.
type waiter struct {
	wq       *WaitQueue // the queue a WaitTimeout is parked on
	timeout  Event      // pending while a WaitTimeout is parked
	timedOut bool
}

// NewWaitQueue returns an empty wait queue. The label is used in deadlock
// diagnostics.
func NewWaitQueue(e *Engine, label string) *WaitQueue {
	return &WaitQueue{eng: e, label: label}
}

// Len reports how many processes are parked.
func (w *WaitQueue) Len() int { return w.waiters.Len() }

// park queues p on w and records the parking in p's waiter.
func (w *WaitQueue) park(p *Proc, timeout Event) {
	p.blockedOn = w.label
	p.w.timeout = timeout
	p.w.timedOut = false
	w.waiters.Push(p)
}

// Wait parks p until a Wake call resumes it.
func (w *WaitQueue) Wait(p *Proc) {
	p.checkCurrent("WaitQueue.Wait")
	w.park(p, Event{})
	p.yield()
	p.blockedOn = ""
}

// WaitTimeout parks p until a Wake call resumes it or d elapses.
// It reports whether the process was woken (true) or timed out (false).
func (w *WaitQueue) WaitTimeout(p *Proc, d Duration) bool {
	p.checkCurrent("WaitQueue.WaitTimeout")
	w.park(p, w.eng.AtArg(w.eng.now.Add(max(d, 0)), timeOut, p))
	p.w.wq = w
	p.yield()
	p.w.wq = nil // keep no finished wait's queue, or its owner, reachable
	p.blockedOn = ""
	return !p.w.timedOut
}

// timeOut is the fn of a WaitTimeout's timer, whose arg is the parked
// *Proc: it takes the proc off its queue and resumes it.
func timeOut(a any) {
	p := a.(*Proc)
	p.w.timedOut = true
	p.w.wq.remove(p)
	p.eng.step(p)
}

// remove drops p's entry from the queue.
func (w *WaitQueue) remove(p *Proc) {
	q := &w.waiters
	for i := q.head; i < len(q.buf); i++ {
		if q.buf[i] == p {
			q.removeAt(i)
			return
		}
	}
}

// WakeOne resumes the oldest parked process, if any. It reports whether a
// process was woken. The resumed process runs at the current instant,
// after the caller yields or returns to the event loop.
func (w *WaitQueue) WakeOne() bool {
	if w.waiters.Len() == 0 {
		return false
	}
	p := w.waiters.Pop()
	p.w.timeout.Cancel()
	w.eng.wakeups++
	w.eng.AtArg(w.eng.now, resume, p)
	return true
}

// WakeAll resumes every parked process in FIFO order.
func (w *WaitQueue) WakeAll() int {
	n := 0
	for w.WakeOne() {
		n++
	}
	return n
}

// Queue is a first-in first-out slice queue: buf[head:] are queued,
// oldest first, and the zero value is empty. It pops by advancing head
// and resets to the start of its array once drained, so a queue that
// empties between uses stops allocating. A push onto a full array first slides the queue down over
// the popped prefix, so a queue that never drains stays within twice its
// longest length.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports how many entries are queued.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// removeAt drops the entry at buf index i, head <= i < len(buf).
func (q *Queue[T]) removeAt(i int) {
	var zero T
	n := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	q.buf[n] = zero
	q.buf = q.buf[:n]
	if q.head == n {
		q.buf, q.head = q.buf[:0], 0
	}
}

// FIFO is a blocking queue of values with optional capacity. Capacity 0
// means unbounded (Put never blocks).
type FIFO[T any] struct {
	items   Queue[T]
	cap     int
	getters WaitQueue
	putters WaitQueue
	closed  bool
	label   string
}

// NewFIFO returns a blocking queue. capacity <= 0 means unbounded.
func NewFIFO[T any](e *Engine, label string, capacity int) *FIFO[T] {
	return &FIFO[T]{
		cap:     capacity,
		getters: WaitQueue{eng: e, label: label + ".get"},
		putters: WaitQueue{eng: e, label: label + ".put"},
		label:   label,
	}
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return f.items.Len() }

// Put appends v, blocking while the queue is at capacity. Putting into a
// closed queue panics: it indicates a protocol bug in the model.
func (f *FIFO[T]) Put(p *Proc, v T) {
	for f.cap > 0 && f.Len() >= f.cap && !f.closed {
		f.putters.Wait(p)
	}
	if f.closed {
		panic("sim: Put on closed FIFO " + f.label)
	}
	f.items.Push(v)
	f.getters.WakeOne()
}

// TryPut appends v without blocking; it reports false if the queue is
// full or closed.
func (f *FIFO[T]) TryPut(v T) bool {
	if f.closed || (f.cap > 0 && f.Len() >= f.cap) {
		return false
	}
	f.items.Push(v)
	f.getters.WakeOne()
	return true
}

// Get removes and returns the head item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (f *FIFO[T]) Get(p *Proc) (v T, ok bool) {
	for f.Len() == 0 && !f.closed {
		f.getters.Wait(p)
	}
	return f.TryGet()
}

// TryGet removes the head item without blocking.
func (f *FIFO[T]) TryGet() (v T, ok bool) {
	if f.Len() == 0 {
		return v, false
	}
	v = f.items.Pop()
	f.putters.WakeOne()
	return v, true
}

// Close marks the queue closed and wakes all blocked getters and putters.
// Queued items can still be drained with Get/TryGet.
func (f *FIFO[T]) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.getters.WakeAll()
	f.putters.WakeAll()
}

// Semaphore is a counting semaphore.
type Semaphore struct {
	count   int
	waiters WaitQueue
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(e *Engine, label string, initial int) *Semaphore {
	return &Semaphore{count: initial, waiters: WaitQueue{eng: e, label: label}}
}

// Count reports the current count (may be observed between operations).
func (s *Semaphore) Count() int { return s.count }

// Acquire decrements the count, blocking while it is zero.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.waiters.Wait(p)
	}
	s.count--
}

// Release increments the count and wakes one waiter.
func (s *Semaphore) Release() {
	s.count++
	s.waiters.WakeOne()
}

// Cond couples a predicate with a wait queue: processes wait until the
// predicate holds, and mutators Broadcast after changing state.
type Cond struct {
	wq WaitQueue
}

// NewCond returns a condition variable.
func NewCond(e *Engine, label string) *Cond {
	c := MakeCond(e, label)
	return &c
}

// MakeCond returns a condition variable by value, for a structure that
// holds its own and so needs no allocation of its own for it. Copy it
// only before its first wait.
func MakeCond(e *Engine, label string) Cond {
	return Cond{wq: WaitQueue{eng: e, label: label}}
}

// WaitFor blocks p until pred() reports true. pred is evaluated before the
// first wait and after every broadcast.
func (c *Cond) WaitFor(p *Proc, pred func() bool) {
	for !pred() {
		c.wq.Wait(p)
	}
}

// WaitForTimeout is WaitFor with a deadline; reports whether pred held.
func (c *Cond) WaitForTimeout(p *Proc, d Duration, pred func() bool) bool {
	deadline := p.Now().Add(d)
	for !pred() {
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return false
		}
		if !c.wq.WaitTimeout(p, remain) && !pred() {
			return false
		}
	}
	return true
}

// WaitUntil is WaitFor with an absolute deadline, zero meaning none;
// it reports whether pred held. A deadline already past still gives
// pred one check, the way a socket deadline in the past behaves.
func (c *Cond) WaitUntil(p *Proc, deadline Time, pred func() bool) bool {
	if deadline == 0 {
		c.WaitFor(p, pred)
		return true
	}
	if remain := deadline.Sub(p.Now()); remain > 0 {
		return c.WaitForTimeout(p, remain, pred)
	}
	return pred()
}

// Broadcast wakes all waiters so they re-evaluate their predicates.
func (c *Cond) Broadcast() { c.wq.WakeAll() }

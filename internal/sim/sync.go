package sim

// WaitQueue is the fundamental blocking primitive: processes park on it
// and are resumed in FIFO order by Wake calls. All higher-level
// primitives (FIFO, Semaphore, Cond) are built on it.
type WaitQueue struct {
	eng     *Engine
	waiters []*waiter
	label   string
}

type waiter struct {
	p     *Proc
	woken bool
	// timeout, if pending, is cancelled when the waiter is woken.
	timeout  Event
	timedOut bool
}

// NewWaitQueue returns an empty wait queue. The label is used in deadlock
// diagnostics.
func NewWaitQueue(e *Engine, label string) *WaitQueue {
	return &WaitQueue{eng: e, label: label}
}

// Len reports how many processes are parked.
func (w *WaitQueue) Len() int { return len(w.waiters) }

// Wait parks p until a Wake call resumes it.
func (w *WaitQueue) Wait(p *Proc) {
	p.checkCurrent("WaitQueue.Wait")
	p.blockedOn = w.label
	wt := &waiter{p: p}
	w.waiters = append(w.waiters, wt)
	p.yield()
	p.blockedOn = ""
}

// WaitTimeout parks p until a Wake call resumes it or d elapses.
// It reports whether the process was woken (true) or timed out (false).
func (w *WaitQueue) WaitTimeout(p *Proc, d Duration) bool {
	p.checkCurrent("WaitQueue.WaitTimeout")
	p.blockedOn = w.label
	wt := &waiter{p: p}
	wt.timeout = w.eng.After(d, func() {
		if wt.woken || wt.p.done {
			return
		}
		wt.woken = true
		wt.timedOut = true
		w.remove(wt)
		w.eng.step(wt.p)
	})
	w.waiters = append(w.waiters, wt)
	p.yield()
	p.blockedOn = ""
	return !wt.timedOut
}

func (w *WaitQueue) remove(target *waiter) {
	for i, wt := range w.waiters {
		if wt == target {
			w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
			return
		}
	}
}

// WakeOne resumes the oldest parked process, if any. It reports whether a
// process was woken. The resumed process runs at the current instant,
// after the caller yields or returns to the event loop.
func (w *WaitQueue) WakeOne() bool {
	for len(w.waiters) > 0 {
		wt := w.waiters[0]
		w.waiters = w.waiters[1:]
		if wt.p.done || wt.woken {
			continue
		}
		wt.woken = true
		wt.timeout.Cancel()
		w.eng.wakeups++
		w.eng.After(0, wt.p.wake)
		return true
	}
	return false
}

// WakeAll resumes every parked process in FIFO order.
func (w *WaitQueue) WakeAll() int {
	n := 0
	for w.WakeOne() {
		n++
	}
	return n
}

// FIFO is a blocking queue of values with optional capacity. Capacity 0
// means unbounded (Put never blocks).
type FIFO[T any] struct {
	eng     *Engine
	items   []T
	cap     int
	getters *WaitQueue
	putters *WaitQueue
	closed  bool
	label   string
}

// NewFIFO returns a blocking queue. capacity <= 0 means unbounded.
func NewFIFO[T any](e *Engine, label string, capacity int) *FIFO[T] {
	return &FIFO[T]{
		eng:     e,
		cap:     capacity,
		getters: NewWaitQueue(e, label+".get"),
		putters: NewWaitQueue(e, label+".put"),
		label:   label,
	}
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.items) }

// Put appends v, blocking while the queue is at capacity. Putting into a
// closed queue panics: it indicates a protocol bug in the model.
func (f *FIFO[T]) Put(p *Proc, v T) {
	for f.cap > 0 && len(f.items) >= f.cap && !f.closed {
		f.putters.Wait(p)
	}
	if f.closed {
		panic("sim: Put on closed FIFO " + f.label)
	}
	f.items = append(f.items, v)
	f.getters.WakeOne()
}

// TryPut appends v without blocking; it reports false if the queue is
// full or closed.
func (f *FIFO[T]) TryPut(v T) bool {
	if f.closed || (f.cap > 0 && len(f.items) >= f.cap) {
		return false
	}
	f.items = append(f.items, v)
	f.getters.WakeOne()
	return true
}

// Get removes and returns the head item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (f *FIFO[T]) Get(p *Proc) (v T, ok bool) {
	for len(f.items) == 0 && !f.closed {
		f.getters.Wait(p)
	}
	if len(f.items) == 0 {
		return v, false
	}
	v = f.items[0]
	f.items = f.items[1:]
	f.putters.WakeOne()
	return v, true
}

// GetTimeout is Get with a deadline; ok is false on timeout or closure.
func (f *FIFO[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	deadline := f.eng.Now().Add(d)
	for len(f.items) == 0 && !f.closed {
		remain := deadline.Sub(f.eng.Now())
		if remain <= 0 {
			return v, false
		}
		if !f.getters.WaitTimeout(p, remain) {
			// Timed out; an item may still have landed exactly now.
			if len(f.items) == 0 {
				return v, false
			}
			break
		}
	}
	if len(f.items) == 0 {
		return v, false
	}
	v = f.items[0]
	f.items = f.items[1:]
	f.putters.WakeOne()
	return v, true
}

// TryGet removes the head item without blocking.
func (f *FIFO[T]) TryGet() (v T, ok bool) {
	if len(f.items) == 0 {
		return v, false
	}
	v = f.items[0]
	f.items = f.items[1:]
	f.putters.WakeOne()
	return v, true
}

// Peek returns the head item without removing it.
func (f *FIFO[T]) Peek() (v T, ok bool) {
	if len(f.items) == 0 {
		return v, false
	}
	return f.items[0], true
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
	waiters *WaitQueue
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(e *Engine, label string, initial int) *Semaphore {
	return &Semaphore{count: initial, waiters: NewWaitQueue(e, label)}
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

// AcquireTimeout is Acquire with a deadline; reports false on timeout.
func (s *Semaphore) AcquireTimeout(p *Proc, d Duration) bool {
	deadline := p.Now().Add(d)
	for s.count == 0 {
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return false
		}
		if !s.waiters.WaitTimeout(p, remain) && s.count == 0 {
			return false
		}
	}
	s.count--
	return true
}

// TryAcquire decrements the count without blocking.
func (s *Semaphore) TryAcquire() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Release increments the count and wakes one waiter.
func (s *Semaphore) Release() {
	s.count++
	s.waiters.WakeOne()
}

// Cond couples a predicate with a wait queue: processes wait until the
// predicate holds, and mutators Broadcast after changing state.
type Cond struct {
	wq *WaitQueue
}

// NewCond returns a condition variable.
func NewCond(e *Engine, label string) *Cond {
	return &Cond{wq: NewWaitQueue(e, label)}
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

// Broadcast wakes all waiters so they re-evaluate their predicates.
func (c *Cond) Broadcast() { c.wq.WakeAll() }

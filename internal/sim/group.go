package sim

// waitGroup tracks a set of outstanding activities; processes block in
// Wait until the count returns to zero. The simulated analogue of
// sync.WaitGroup, used by fork-per-connection servers and scatter/gather
// masters.
type waitGroup struct {
	count int
	cond  *Cond
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine, label string) *waitGroup {
	return &waitGroup{cond: NewCond(e, label)}
}

// Add increments the outstanding count by n (n may be negative, as with
// sync.WaitGroup; the count must not go below zero).
func (wg *waitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the count by one.
func (wg *waitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the count reaches zero.
func (wg *waitGroup) Wait(p *Proc) {
	wg.cond.WaitFor(p, func() bool { return wg.count == 0 })
}

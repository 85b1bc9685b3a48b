package sim

// WaitGroup tracks a set of outstanding activities; processes block in
// Wait until the count returns to zero. The simulated analogue of
// sync.WaitGroup, used by fork-per-connection servers and scatter/gather
// masters.
type WaitGroup struct {
	count int
	cond  *Cond
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine, label string) *WaitGroup {
	return &WaitGroup{cond: NewCond(e, label)}
}

// Add increments the outstanding count by n (n may be negative, as with
// sync.WaitGroup; the count must not go below zero).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count reports the outstanding count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks p until the count reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	wg.cond.WaitFor(p, func() bool { return wg.count == 0 })
}

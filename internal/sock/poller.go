// Readiness poller: an epoll-style completion-queue interface over the
// sim notification primitive. Each pollable object owns a
// sim.NoteSource and fires it on state transitions (data arrival,
// credit return, backlog growth, error); a Poller subscribes one
// sim.NoteSink to every registered object and wakes on the first
// matching event. Wait's work is proportional to the number of objects
// that became ready — a ready-list, not a re-scan of the interest set —
// which is what lets one proc multiplex hundreds of connections.
//
// A poller is consumed in one of two modes:
//
//   - Batch mode: a single proc calls Wait and receives every pending
//     event at once. This is the original single-waiter interface.
//   - Waiter mode: K worker procs each hold a PollWaiter (from
//     Poller.Waiter) and block in PollWaiter.Wait, which delivers
//     exactly one event to exactly one worker per call
//     (EPOLLEXCLUSIVE+EPOLLONESHOT style): each event wakes one
//     waiter, a claimed object is masked until the worker calls Done,
//     and an edge that fires while the object is claimed re-arms it at
//     Done. FIFO wakeups and the shared round-robin cursor keep
//     delivery fair across both waiters and objects.
//
// The two modes must not be mixed on one poller: batch Wait drains the
// shared sink wholesale and would swallow events the waiters are
// parked for.
package sock

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// PollEvents is a bitmask of readiness classes, mirroring epoll's
// EPOLLIN/EPOLLOUT/EPOLLERR triple.
type PollEvents uint32

const (
	// PollIn reports the object is readable (or acceptable).
	PollIn PollEvents = 1 << iota
	// PollOut reports the object is writable without blocking.
	PollOut
	// PollErr reports a terminal error (reset, peer failure, close).
	PollErr
)

// String renders the mask as "in|out|err" for diagnostics.
func (e PollEvents) String() string {
	s := ""
	add := func(name string) {
		if s != "" {
			s += "|"
		}
		s += name
	}
	if e&PollIn != 0 {
		add("in")
	}
	if e&PollOut != 0 {
		add("out")
	}
	if e&PollErr != 0 {
		add("err")
	}
	if s == "" {
		s = "none"
	}
	return s
}

// Pollable is an object a Poller can register: it exposes its current
// readiness state and the notification source it fires on transitions.
type Pollable interface {
	Waitable
	// PollState reports the object's current readiness mask.
	PollState() PollEvents
	// PollSource returns the object's notification source. It must
	// return the same source for the object's whole lifetime.
	PollSource() *sim.NoteSource
}

// PollEvent is one ready object delivered by Wait.
type PollEvent struct {
	Item   Pollable
	Events PollEvents // current readiness, masked by the registered interest
	Data   any        // user datum passed at Register
}

type pollReg struct {
	item     Pollable
	interest PollEvents
	data     any
	token    uint64
	// busy marks an object claimed by a PollWaiter and not yet released
	// with Done; events for a busy object are deferred, not delivered to
	// a second waiter.
	busy bool
	// repost records that an edge fired while the object was busy, so
	// Done re-checks readiness and re-queues the object.
	repost bool
}

// Poller multiplexes readiness across registered objects, edge-triggered
// with a level-triggered kick at Register: registering an object that is
// already ready queues an immediate event, and subsequent events arrive
// only on state transitions. Consumers must therefore drain an object
// (read until not Readable, write until blocked) before calling Wait
// again, as with EPOLLET.
type Poller struct {
	eng   *sim.Engine
	sink  *sim.NoteSink
	regs  map[uint64]*pollReg
	items map[Pollable]uint64
	next  uint64
	// cursor is the token of the last event delivered: each Wait starts
	// delivery just past it (round-robin over registration order), so a
	// hot object that refires on every Wait cannot permanently occupy
	// the front of the ready list and starve consumers that only handle
	// a prefix of each batch. Waiter-mode claims share the same cursor.
	cursor uint64

	// Waiter-mode state: tokens drained from the sink but not yet
	// claimed live in ready/readyIn, blocked PollWaiters park on mwq
	// (FIFO, one wakeup per event), and closeGen bumps on Close so every
	// parked waiter unblocks with ok=false exactly once.
	ready    []uint64
	readyIn  map[uint64]bool
	mwq      *sim.WaitQueue
	waiters  []*PollWaiter
	closeGen int

	// WaitCost, if set, is charged once per Wait call before blocking
	// (e.g. a library-call or syscall entry cost).
	WaitCost func(p *sim.Proc)

	// Counters for scalability accounting: Waits is the number of Wait
	// calls that returned events, Delivered the total events returned,
	// and Scanned the per-object readiness checks performed. Scanned
	// tracking Delivered rather than the registered-set size is the
	// poller's reason to exist.
	Waits     int64 `metric:"poll_waits"`
	Delivered int64 `metric:"poll_delivered"`
	Scanned   int64 `metric:"poll_scanned"`
}

// NewPoller returns an empty poller. The label names its wait queue in
// deadlock diagnostics.
func NewPoller(e *sim.Engine, label string) *Poller {
	po := &Poller{
		eng:     e,
		sink:    sim.NewNoteSink(e, label),
		regs:    make(map[uint64]*pollReg),
		items:   make(map[Pollable]uint64),
		readyIn: make(map[uint64]bool),
		mwq:     sim.NewWaitQueue(e, label+".waiters"),
	}
	// Route each effective event post to exactly one parked waiter.
	// With no waiters (batch mode) this is a no-op and the sink's own
	// WaitAny wakeup serves the single consumer.
	po.sink.SetNotify(func() { po.mwq.WakeOne() })
	return po
}

// Len reports how many objects are registered.
func (po *Poller) Len() int { return len(po.regs) }

// Register adds item to the interest set. data rides back on every
// delivered event. Registering an already-registered item updates its
// interest and data. If the item is currently ready for any interest
// class, an event is queued immediately so the caller cannot miss an
// edge that fired before registration.
func (po *Poller) Register(item Pollable, interest PollEvents, data any) {
	if tok, ok := po.items[item]; ok {
		reg := po.regs[tok]
		reg.interest = interest
		reg.data = data
		item.PollSource().Subscribe(po.sink, tok, uint32(interest))
		if item.PollState()&interest != 0 {
			po.sink.Post(tok)
		} else {
			po.sink.Remove(tok)
			po.dropReady(tok)
		}
		return
	}
	po.next++
	tok := po.next
	reg := &pollReg{item: item, interest: interest, data: data, token: tok}
	po.regs[tok] = reg
	po.items[item] = tok
	item.PollSource().Subscribe(po.sink, tok, uint32(interest))
	if item.PollState()&interest != 0 {
		po.sink.Post(tok)
	}
}

// Deregister removes item from the interest set, discarding any queued
// event for it. Deregistering an unknown item is a no-op. No waiter is
// woken: removing an event can only shrink the ready set, and a waiter
// that was parked for this item's event simply keeps waiting for the
// next one. Deregistering an item a waiter currently holds claimed is
// allowed; the worker's eventual Done becomes a no-op.
func (po *Poller) Deregister(item Pollable) {
	tok, ok := po.items[item]
	if !ok {
		return
	}
	item.PollSource().Unsubscribe(po.sink)
	po.sink.Remove(tok)
	po.dropReady(tok)
	delete(po.regs, tok)
	delete(po.items, item)
}

// dropReady removes tok from the waiter-mode claimable list, if present.
func (po *Poller) dropReady(tok uint64) {
	if !po.readyIn[tok] {
		return
	}
	delete(po.readyIn, tok)
	for i, t := range po.ready {
		if t == tok {
			po.ready = append(po.ready[:i], po.ready[i+1:]...)
			return
		}
	}
}

// postReady queues tok for waiter-mode claiming and wakes one parked
// waiter.
func (po *Poller) postReady(tok uint64) {
	if po.readyIn[tok] {
		return
	}
	po.readyIn[tok] = true
	po.ready = append(po.ready, tok)
	po.mwq.WakeOne()
}

// Wait blocks p until at least one registered object has a pending
// event or the timeout elapses (negative timeout waits forever; zero
// polls). It returns the ready objects with their current readiness,
// or nil on timeout. Spurious tokens — an object that fired but is no
// longer ready by delivery time — are filtered out, and Wait re-blocks
// rather than return an empty slice before the deadline.
func (po *Poller) Wait(p *sim.Proc, timeout sim.Duration) []PollEvent {
	if po.WaitCost != nil {
		po.WaitCost(p)
	}
	deadline := sim.Time(0)
	if timeout >= 0 {
		deadline = p.Now().Add(timeout)
	}
	for {
		if po.sink.Pending() == 0 {
			if timeout == 0 {
				return nil
			}
			if timeout < 0 {
				po.sink.WaitAny(p, -1)
			} else {
				remain := deadline.Sub(p.Now())
				if remain <= 0 || !po.sink.WaitAny(p, remain) {
					return nil
				}
			}
		}
		toks := po.sink.Drain()
		// Round-robin fairness: deliver in token (registration) order,
		// starting just past the last token served by the previous Wait.
		sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
		start := sort.Search(len(toks), func(i int) bool { return toks[i] > po.cursor })
		var out []PollEvent
		for i := 0; i < len(toks); i++ {
			tok := toks[(start+i)%len(toks)]
			reg, ok := po.regs[tok]
			if !ok {
				continue
			}
			po.Scanned++
			ev := reg.item.PollState() & reg.interest
			if ev == 0 {
				continue
			}
			out = append(out, PollEvent{Item: reg.item, Events: ev, Data: reg.data})
		}
		if len(out) > 0 {
			po.cursor = po.items[out[0].Item]
			po.Waits++
			po.Delivered += int64(len(out))
			return out
		}
		// Every queued token was stale; block again unless polling.
		if timeout == 0 {
			return nil
		}
	}
}

// Close deregisters everything and unblocks every parked PollWaiter —
// each pending PollWaiter.Wait returns ok=false exactly once. The
// poller can be reused afterwards (waiters included).
func (po *Poller) Close() {
	for item := range po.items {
		item.PollSource().Unsubscribe(po.sink)
	}
	po.sink.Drain()
	po.regs = make(map[uint64]*pollReg)
	po.items = make(map[Pollable]uint64)
	po.ready = nil
	po.readyIn = make(map[uint64]bool)
	po.closeGen++
	po.mwq.WakeAll()
}

// PollWaiter is one consumer slot of a shared poller: K workers each
// hold one and block in Wait, and the poller delivers each event to
// exactly one of them. Create with Poller.Waiter.
type PollWaiter struct {
	po   *Poller
	Name string

	// Per-waiter delivery counters, mirroring the poller-level ones.
	Waits     int64
	Delivered int64
	Scanned   int64
}

// Waiter returns a new consumer slot for waiter-mode use of the poller.
func (po *Poller) Waiter(name string) *PollWaiter {
	w := &PollWaiter{po: po, Name: name}
	po.waiters = append(po.waiters, w)
	return w
}

// Wait blocks p until the waiter claims one event or the timeout
// elapses (negative waits forever; zero polls). ok is false on timeout
// or when the poller is closed while parked. The claimed object is
// masked from other waiters until Done releases it.
func (w *PollWaiter) Wait(p *sim.Proc, timeout sim.Duration) (PollEvent, bool) {
	po := w.po
	if po.WaitCost != nil {
		po.WaitCost(p)
	}
	gen := po.closeGen
	deadline := sim.Time(0)
	if timeout >= 0 {
		deadline = p.Now().Add(timeout)
	}
	for {
		if ev, ok := po.claimOne(w); ok {
			return ev, true
		}
		if po.closeGen != gen || timeout == 0 {
			return PollEvent{}, false
		}
		if timeout < 0 {
			po.mwq.Wait(p)
			continue
		}
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return PollEvent{}, false
		}
		if !po.mwq.WaitTimeout(p, remain) {
			// Timed out; an event may still have landed exactly now.
			if ev, ok := po.claimOne(w); ok {
				return ev, true
			}
			return PollEvent{}, false
		}
	}
}

// Done releases an object claimed by a waiter-mode Wait. If an edge
// fired while the object was claimed, it is re-queued (and one waiter
// woken) provided it is still ready — the EPOLLONESHOT re-arm. Calling
// Done on a deregistered or unknown item is a no-op.
func (po *Poller) Done(item Pollable) {
	tok, ok := po.items[item]
	if !ok {
		return
	}
	reg := po.regs[tok]
	if !reg.busy {
		return
	}
	reg.busy = false
	if reg.repost {
		reg.repost = false
		if reg.item.PollState()&reg.interest != 0 {
			po.postReady(tok)
		}
	}
}

// claimOne moves sink tokens onto the claimable list and claims the
// first live, unclaimed event past the shared cursor for w. Stale and
// deregistered tokens are discarded; tokens for busy objects are
// deferred via the repost flag.
func (po *Poller) claimOne(w *PollWaiter) (PollEvent, bool) {
	for _, tok := range po.sink.Drain() {
		if !po.readyIn[tok] {
			po.readyIn[tok] = true
			po.ready = append(po.ready, tok)
		}
	}
	if len(po.ready) == 0 {
		return PollEvent{}, false
	}
	toks := append([]uint64(nil), po.ready...)
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	start := sort.Search(len(toks), func(i int) bool { return toks[i] > po.cursor })
	for i := 0; i < len(toks); i++ {
		tok := toks[(start+i)%len(toks)]
		reg, ok := po.regs[tok]
		if !ok {
			po.dropReady(tok)
			continue
		}
		if reg.busy {
			reg.repost = true
			po.dropReady(tok)
			continue
		}
		w.Scanned++
		po.Scanned++
		ev := reg.item.PollState() & reg.interest
		if ev == 0 {
			po.dropReady(tok)
			continue
		}
		po.dropReady(tok)
		reg.busy = true
		po.cursor = tok
		w.Waits++
		w.Delivered++
		po.Waits++
		po.Delivered++
		return PollEvent{Item: reg.item, Events: ev, Data: reg.data}, true
	}
	return PollEvent{}, false
}

// TelemetryStats reports the poller's scalability counters as a
// telemetry source: the tagged fields, then each named waiter's three.
// Register with Registry.ReplaceSource under a layer like "poller".
func (po *Poller) TelemetryStats() []telemetry.Stat {
	out := telemetry.Fields(po)
	for _, w := range po.waiters {
		out = append(out,
			telemetry.Stat{Name: "poll_waiter_" + w.Name + "_waits", Value: w.Waits},
			telemetry.Stat{Name: "poll_waiter_" + w.Name + "_delivered", Value: w.Delivered},
			telemetry.Stat{Name: "poll_waiter_" + w.Name + "_scanned", Value: w.Scanned},
		)
	}
	return out
}

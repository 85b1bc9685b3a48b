// Readiness poller: an epoll-style completion queue. Each pollable
// object owns a NoteSource and fires it on state transitions (data
// arrival, credit return, backlog growth, error); a Poller subscribes
// to every registered object and keeps one deduplicated ready list of
// their tokens. Claiming an event re-checks only the objects on that
// list — a ready-list, not a re-scan of the interest set — which is what
// lets one proc multiplex hundreds of connections.
//
// Events are consumed through PollWaiters (from Poller.Waiter): each
// PollWaiter.Wait delivers exactly one event to exactly one waiter
// (EPOLLEXCLUSIVE+EPOLLONESHOT style). Each event wakes one waiter, a
// claimed object is masked until the worker calls Done, and an edge
// that fires while the object is claimed re-arms it at Done. FIFO
// wakeups and the round-robin cursor keep delivery fair across both
// waiters and objects. A single-process event loop is one waiter.
package sock

import (
	"slices"

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

// noteSub is one poller's subscription on a NoteSource.
type noteSub struct {
	po    *Poller
	token uint64
	mask  PollEvents
}

// NoteSource is the publication side of per-object readiness: each
// pollable object (connection, listener, UDP socket) embeds one and
// Fires it on state transitions. Subscribed pollers whose interest
// intersects the fired classes queue the subscriber's token. The zero
// value is ready to use; an object with no subscribers pays one
// nil-slice check per Fire.
type NoteSource struct {
	subs []noteSub
}

// subscribe routes events matching mask to po, tagged with token.
// Subscribing the same poller again replaces its token and mask.
func (ns *NoteSource) subscribe(po *Poller, token uint64, mask PollEvents) {
	for i := range ns.subs {
		if ns.subs[i].po == po {
			ns.subs[i].token = token
			ns.subs[i].mask = mask
			return
		}
	}
	ns.subs = append(ns.subs, noteSub{po: po, token: token, mask: mask})
}

// unsubscribe removes po's subscription, if any.
func (ns *NoteSource) unsubscribe(po *Poller) {
	for i := range ns.subs {
		if ns.subs[i].po == po {
			ns.subs = append(ns.subs[:i], ns.subs[i+1:]...)
			return
		}
	}
}

// Fire publishes an event of the given classes to every subscribed
// poller whose interest intersects them. Unlike a Cond broadcast it
// wakes only consumers registered on this object.
func (ns *NoteSource) Fire(mask PollEvents) {
	for _, sub := range ns.subs {
		if sub.mask&mask != 0 {
			sub.po.post(sub.token)
		}
	}
}

// Pollable is an object a Poller can register: it exposes its current
// readiness state and the notification source it fires on transitions.
type Pollable interface {
	// PollState reports the object's current readiness mask.
	PollState() PollEvents
	// PollSource returns the object's notification source. It must
	// return the same source for the object's whole lifetime.
	PollSource() *NoteSource
}

// PollEvent is one ready object delivered by PollWaiter.Wait.
type PollEvent struct {
	Item   Pollable
	Events PollEvents // current readiness, masked by the registered interest
	Data   any        // user datum passed at Register
}

type pollReg struct {
	item     Pollable
	interest PollEvents
	data     any
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
// (read until PollState drops PollIn, write until blocked) before
// calling Done, as with EPOLLET.
type Poller struct {
	regs  map[uint64]*pollReg
	items map[Pollable]uint64
	next  uint64
	// ready holds the tokens of objects that fired and are not yet
	// claimed, deduplicated and in ascending (registration) order.
	ready []uint64
	// cursor is the token of the last claimed event: each claim starts
	// just past it, wrapping, so a hot object that refires on every Wait
	// cannot starve the rest of the interest set.
	cursor uint64
	// Blocked PollWaiters park on wq (FIFO, one wakeup per event), and
	// closeGen bumps on Close so every parked waiter unblocks with
	// ok=false exactly once.
	wq       *sim.WaitQueue
	waiters  []*PollWaiter
	closeGen int

	// Counters for scalability accounting: Waits is the number of Wait
	// calls that returned an event, Delivered the events returned, and
	// Scanned the per-object readiness checks performed. Scanned
	// tracking Delivered rather than the registered-set size is the
	// poller's reason to exist.
	Waits     int64 `metric:"poll_waits"`
	Delivered int64 `metric:"poll_delivered"`
	Scanned   int64 `metric:"poll_scanned"`
}

// NewPoller returns an empty poller. The label names its wait queue in
// deadlock diagnostics.
func NewPoller(e *sim.Engine, label string) *Poller {
	return &Poller{
		regs:  make(map[uint64]*pollReg),
		items: make(map[Pollable]uint64),
		wq:    sim.NewWaitQueue(e, label),
	}
}

// Register adds item to the interest set. data rides back on every
// delivered event. Registering an already-registered item updates its
// interest and data. If the item is currently ready for any interest
// class, an event is queued immediately so the caller cannot miss an
// edge that fired before registration.
func (po *Poller) Register(item Pollable, interest PollEvents, data any) {
	tok, ok := po.items[item]
	if ok {
		reg := po.regs[tok]
		reg.interest = interest
		reg.data = data
	} else {
		po.next++
		tok = po.next
		po.regs[tok] = &pollReg{item: item, interest: interest, data: data}
		po.items[item] = tok
	}
	item.PollSource().subscribe(po, tok, interest)
	if item.PollState()&interest != 0 {
		po.post(tok)
	} else {
		po.unpost(tok)
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
	item.PollSource().unsubscribe(po)
	po.unpost(tok)
	delete(po.regs, tok)
	delete(po.items, item)
}

// post queues tok on the ready list and wakes one parked waiter. A
// token already queued coalesces, so a burst of events on one object
// costs one entry and one wakeup.
func (po *Poller) post(tok uint64) {
	i, queued := slices.BinarySearch(po.ready, tok)
	if queued {
		return
	}
	po.ready = slices.Insert(po.ready, i, tok)
	po.wq.WakeOne()
}

// unpost removes tok from the ready list, if present.
func (po *Poller) unpost(tok uint64) {
	if i, queued := slices.BinarySearch(po.ready, tok); queued {
		po.ready = slices.Delete(po.ready, i, i+1)
	}
}

// Close deregisters everything and unblocks every parked PollWaiter —
// each pending PollWaiter.Wait returns ok=false exactly once. The
// poller can be reused afterwards (waiters included).
func (po *Poller) Close() {
	for item := range po.items {
		item.PollSource().unsubscribe(po)
	}
	po.regs = make(map[uint64]*pollReg)
	po.items = make(map[Pollable]uint64)
	po.ready = nil
	po.closeGen++
	po.wq.WakeAll()
}

// PollWaiter is one consumer slot of a poller: K workers each hold one
// and block in Wait, and the poller delivers each event to exactly one
// of them. Create with Poller.Waiter.
type PollWaiter struct {
	po   *Poller
	Name string

	// Per-waiter delivery counters, mirroring the poller-level ones.
	Waits     int64
	Delivered int64
	Scanned   int64
}

// Waiter returns a new consumer slot on the poller.
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
	gen := po.closeGen
	deadline := sim.Time(0)
	if timeout >= 0 {
		deadline = p.Now().Add(timeout)
	}
	for {
		if ev, ok := po.claim(w); ok {
			return ev, true
		}
		if po.closeGen != gen || timeout == 0 {
			return PollEvent{}, false
		}
		if timeout < 0 {
			po.wq.Wait(p)
			continue
		}
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return PollEvent{}, false
		}
		if !po.wq.WaitTimeout(p, remain) {
			// Timed out; an event may still have landed exactly now.
			return po.claim(w)
		}
	}
}

// Done releases an object claimed by Wait. If an edge fired while the
// object was claimed, it is re-queued (and one waiter woken) provided
// it is still ready — the EPOLLONESHOT re-arm. Calling Done on a
// deregistered or unknown item is a no-op.
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
			po.post(tok)
		}
	}
}

// claim takes the first live, unclaimed event past the cursor for w,
// wrapping to the lowest token. Stale tokens are discarded; tokens for
// busy objects are deferred via the repost flag.
func (po *Poller) claim(w *PollWaiter) (PollEvent, bool) {
	for len(po.ready) > 0 {
		i, _ := slices.BinarySearch(po.ready, po.cursor+1)
		if i == len(po.ready) {
			i = 0
		}
		tok := po.ready[i]
		po.ready = slices.Delete(po.ready, i, i+1)
		reg := po.regs[tok]
		if reg.busy {
			reg.repost = true
			continue
		}
		w.Scanned++
		po.Scanned++
		ev := reg.item.PollState() & reg.interest
		if ev == 0 {
			continue
		}
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

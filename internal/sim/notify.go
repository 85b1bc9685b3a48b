package sim

// Notifiable is anything that can be poked when simulation state changes.
// Broadcast-style condition variables satisfy it, as do completion-queue
// sinks; producers that used to take a *Cond can take a Notifiable and
// serve both the legacy poll path and the event-driven poller.
type Notifiable interface {
	Notify()
}

// Notify makes *Cond a Notifiable: a notification is a broadcast.
func (c *Cond) Notify() { c.Broadcast() }

// NoteSink is a completion queue: sources Post tokens into it and a
// single consumer blocks in WaitAny until at least one token is queued.
// Tokens are deduplicated — posting a token already queued is a no-op —
// so a burst of events on one object costs one queue entry, and the
// consumer's work per wakeup is proportional to the number of distinct
// ready objects, not to the number of events or registered objects.
type NoteSink struct {
	wq     *WaitQueue
	ready  []uint64
	queued map[uint64]struct{}
	onPost func()
}

// NewNoteSink returns an empty sink. The label names it in deadlock
// diagnostics.
func NewNoteSink(e *Engine, label string) *NoteSink {
	return &NoteSink{
		wq:     NewWaitQueue(e, label),
		queued: make(map[uint64]struct{}),
	}
}

// Post enqueues token and wakes the consumer. Duplicate posts coalesce.
func (s *NoteSink) Post(token uint64) {
	if _, dup := s.queued[token]; dup {
		return
	}
	s.queued[token] = struct{}{}
	s.ready = append(s.ready, token)
	s.wq.WakeOne()
	if s.onPost != nil {
		s.onPost()
	}
}

// SetNotify installs fn to run after every effective (non-coalesced)
// Post, in addition to waking a WaitAny consumer. Multi-consumer
// wrappers (sock.Poller's waiter pool) use it to route each event's
// wakeup to their own wait queue so exactly one consumer wakes per
// event.
func (s *NoteSink) SetNotify(fn func()) { s.onPost = fn }

// Pending reports how many distinct tokens are queued.
func (s *NoteSink) Pending() int { return len(s.ready) }

// Drain removes and returns all queued tokens in posting order.
func (s *NoteSink) Drain() []uint64 {
	if len(s.ready) == 0 {
		return nil
	}
	out := s.ready
	s.ready = nil
	for _, t := range out {
		delete(s.queued, t)
	}
	return out
}

// Remove discards a queued token, if present. Used when an object is
// deregistered with a stale readiness token still in the queue.
func (s *NoteSink) Remove(token uint64) {
	if _, ok := s.queued[token]; !ok {
		return
	}
	delete(s.queued, token)
	for i, t := range s.ready {
		if t == token {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			break
		}
	}
}

// WaitAny blocks p until at least one token is queued or d elapses
// (d < 0 means no timeout). It reports whether tokens are available.
func (s *NoteSink) WaitAny(p *Proc, d Duration) bool {
	if d < 0 {
		for len(s.ready) == 0 {
			s.wq.Wait(p)
		}
		return true
	}
	deadline := p.Now().Add(d)
	for len(s.ready) == 0 {
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return false
		}
		if !s.wq.WaitTimeout(p, remain) && len(s.ready) == 0 {
			return false
		}
	}
	return true
}

// noteSub is one subscription on a NoteSource.
type noteSub struct {
	sink  *NoteSink
	token uint64
	mask  uint32
}

// NoteSource is the publication side of per-object readiness: each
// waitable object (connection, listener, UDP socket, EMP handle) embeds
// one and Fires it on state transitions. Subscribed sinks whose interest
// mask intersects the fired event class receive the subscriber's token.
// The zero value is ready to use; an object with no subscribers pays one
// nil-slice check per Fire.
type NoteSource struct {
	subs []noteSub
}

// Subscribe routes events matching mask to sink, tagged with token.
// Subscribing the same sink again replaces its token and mask.
func (ns *NoteSource) Subscribe(sink *NoteSink, token uint64, mask uint32) {
	for i := range ns.subs {
		if ns.subs[i].sink == sink {
			ns.subs[i].token = token
			ns.subs[i].mask = mask
			return
		}
	}
	ns.subs = append(ns.subs, noteSub{sink: sink, token: token, mask: mask})
}

// Unsubscribe removes sink's subscription, if any.
func (ns *NoteSource) Unsubscribe(sink *NoteSink) {
	for i := range ns.subs {
		if ns.subs[i].sink == sink {
			ns.subs = append(ns.subs[:i], ns.subs[i+1:]...)
			return
		}
	}
}

// Fire publishes an event of the given class mask to every subscriber
// whose interest intersects it. Unlike a Cond broadcast it wakes only
// consumers registered on this object.
func (ns *NoteSource) Fire(mask uint32) {
	for _, sub := range ns.subs {
		if sub.mask&mask != 0 {
			sub.sink.Post(sub.token)
		}
	}
}

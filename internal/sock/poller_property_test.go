package sock

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// pollModel is the reference the property test checks the poller
// against: per object, its token (registration order), interest and
// claim state, plus the set of queued tokens and the cursor.
type pollModel struct {
	next   uint64
	cursor uint64
	regs   map[int]*modelReg // by stub id
}

type modelReg struct {
	token    uint64
	interest PollEvents
	queued   bool
	busy     bool
	repost   bool
}

// claim predicts the next claim: the first queued token past the
// cursor, wrapping, skipping (and dequeuing) busy and stale objects.
func (m *pollModel) claim(stubs []*stubPollable) (id int, ok bool) {
	for {
		best, wrap := -1, -1
		for i, r := range m.regs {
			if !r.queued {
				continue
			}
			if r.token > m.cursor && (best < 0 || r.token < m.regs[best].token) {
				best = i
			}
			if wrap < 0 || r.token < m.regs[wrap].token {
				wrap = i
			}
		}
		if best < 0 {
			best = wrap
		}
		if best < 0 {
			return 0, false
		}
		r := m.regs[best]
		r.queued = false
		if r.busy {
			r.repost = true
			continue
		}
		if stubs[best].state&r.interest == 0 {
			continue
		}
		r.busy = true
		m.cursor = r.token
		return best, true
	}
}

// TestPollerClaimProperty drives random sequences of Register, Fire,
// consume, Deregister, Wait(0) and Done over three objects and 1–3
// waiters. Every claim must name a registered object that is ready for
// its interest and not already claimed, and claims must advance in
// ascending token order past the last claimed token, wrapping — the
// order the simulator's byte-identical replay depends on.
func TestPollerClaimProperty(t *testing.T) {
	const nStubs = 3
	prop := func(nWaiters uint8, ops []uint16) bool {
		e := sim.NewEngine()
		po := NewPoller(e, "prop")
		waiters := make([]*PollWaiter, 1+int(nWaiters)%3)
		for i := range waiters {
			waiters[i] = po.Waiter(fmt.Sprintf("w%d", i))
		}
		stubs := make([]*stubPollable, nStubs)
		for i := range stubs {
			stubs[i] = &stubPollable{id: i}
		}
		m := &pollModel{regs: make(map[int]*modelReg)}
		good := true
		fail := func(format string, args ...any) {
			t.Errorf(format, args...)
			good = false
		}
		e.Spawn("ops", func(p *sim.Proc) {
			for step, op := range ops {
				if !good {
					return
				}
				id := int(op>>3&3) % nStubs
				mask := PollEvents(op>>5) & (PollIn | PollOut | PollErr)
				if mask == 0 {
					mask = PollIn
				}
				s := stubs[id]
				r := m.regs[id]
				switch op % 6 {
				case 0: // Register (or re-register with a new interest)
					po.Register(s, mask, id)
					if r == nil {
						m.next++
						r = &modelReg{token: m.next}
						m.regs[id] = r
					}
					r.interest = mask
					r.queued = s.state&mask != 0
				case 1: // an edge fires
					s.fire(mask)
					if r != nil && r.interest&mask != 0 {
						r.queued = true
					}
				case 2: // the consumer drains some classes
					s.state &^= mask
				case 3:
					po.Deregister(s)
					delete(m.regs, id)
				case 4: // a waiter polls
					w := waiters[int(op>>8)%len(waiters)]
					ev, ok := w.Wait(p, 0)
					if ok {
						got := ev.Data.(int)
						switch r := m.regs[got]; {
						case r == nil:
							fail("step %d: claimed unregistered object %d", step, got)
						case r.busy:
							fail("step %d: claimed object %d twice", step, got)
						case stubs[got].state&r.interest == 0:
							fail("step %d: claimed object %d that is not ready", step, got)
						}
						if !good {
							return
						}
					}
					want, wantOK := m.claim(stubs)
					if ok != wantOK {
						fail("step %d: claim ok=%v, model says %v", step, ok, wantOK)
						return
					}
					if !ok {
						continue
					}
					got := ev.Data.(int)
					if got != want || ev.Item != stubs[want] {
						fail("step %d: claimed object %d, model says %d (cursor order)", step, got, want)
						return
					}
					if ev.Events == 0 || ev.Events != stubs[got].state&m.regs[got].interest {
						fail("step %d: object %d delivered %v, state %v interest %v",
							step, got, ev.Events, stubs[got].state, m.regs[got].interest)
					}
				case 5: // a worker releases its claim
					po.Done(s)
					if r != nil && r.busy {
						r.busy = false
						if r.repost {
							r.repost = false
							if s.state&r.interest != 0 {
								r.queued = true
							}
						}
					}
				}
			}
		})
		e.Run()
		var waits, delivered, scanned int64
		for _, w := range waiters {
			waits += w.Waits
			delivered += w.Delivered
			scanned += w.Scanned
		}
		if waits != po.Waits || delivered != po.Delivered || scanned != po.Scanned {
			fail("waiter counters %d/%d/%d do not sum to the poller's %d/%d/%d",
				waits, delivered, scanned, po.Waits, po.Delivered, po.Scanned)
		}
		return good
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

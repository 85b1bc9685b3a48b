package sock

import (
	"testing"

	"repro/internal/sim"
)

// stubPollable is a minimal Pollable whose readiness the test scripts
// directly.
type stubPollable struct {
	id    int
	src   NoteSource
	state PollEvents
}

func (s *stubPollable) PollState() PollEvents   { return s.state }
func (s *stubPollable) PollSource() *NoteSource { return &s.src }

// fire marks the stub ready and publishes the edge.
func (s *stubPollable) fire(ev PollEvents) {
	s.state |= ev
	s.src.Fire(ev)
}

// TestPollerRoundRobinRotation: a consumer that claims only a prefix of
// the ready objects each round, with every object refiring every round,
// must still be served in registration order rotated past the last
// claimed object — the claim sequence cycles 0,1,2,3,0,... across
// rounds, and every object is served equally often.
func TestPollerRoundRobinRotation(t *testing.T) {
	run(t, func(p *sim.Proc) {
		po := NewPoller(p.Engine(), "fair")
		w := po.Waiter("w")
		const n = 4
		stubs := make([]*stubPollable, n)
		for i := range stubs {
			stubs[i] = &stubPollable{id: i}
			po.Register(stubs[i], PollIn, i)
		}
		var order []int
		for r := 0; r < n; r++ {
			for _, s := range stubs {
				s.fire(PollIn)
			}
			for k := 0; k < n-1; k++ {
				ev, ok := w.Wait(p, 0)
				if !ok {
					t.Fatalf("round %d: no event with every object ready", r)
				}
				order = append(order, ev.Data.(int))
				po.Done(ev.Item)
			}
		}
		served := make([]int, n)
		for i, id := range order {
			served[id]++
			if i > 0 && id != (order[i-1]+1)%n {
				t.Fatalf("claim sequence %v does not rotate", order)
			}
		}
		for id, c := range served {
			if c != n-1 {
				t.Fatalf("object %d served %d times, want %d; order %v", id, c, n-1, order)
			}
		}
	})
}

// TestPollerHotItemDoesNotStarve: a consumer that services one event per
// round must still reach every ready object, even with one object
// refiring on every round — the starvation scenario the rotation cursor
// exists for.
func TestPollerHotItemDoesNotStarve(t *testing.T) {
	run(t, func(p *sim.Proc) {
		po := NewPoller(p.Engine(), "hot")
		w := po.Waiter("w")
		const n = 5
		stubs := make([]*stubPollable, n)
		for i := range stubs {
			stubs[i] = &stubPollable{id: i}
			po.Register(stubs[i], PollIn, i)
			stubs[i].fire(PollIn) // everyone starts ready
		}
		serviced := make(map[int]bool)
		for r := 0; r < 2*n && len(serviced) < n; r++ {
			ev, ok := w.Wait(p, 0)
			if !ok {
				t.Fatalf("round %d: no event with all objects ready", r)
			}
			head := ev.Data.(int)
			serviced[head] = true
			stubs[head].state = 0 // consume only the claimed object...
			po.Done(ev.Item)
			stubs[0].fire(PollIn) // ...while object 0 stays hot
			for _, s := range stubs {
				if s.state != 0 {
					s.src.Fire(s.state) // unconsumed objects refire
				}
			}
		}
		if len(serviced) != n {
			t.Fatalf("only %d/%d objects serviced: %v", len(serviced), n, serviced)
		}
	})
}

// TestPollerRegisterKickWhileReady: the level-triggered kick at Register
// must deliver an object that was already readable, and edge-triggered
// semantics must suppress repeats until the next transition.
func TestPollerRegisterKickWhileReady(t *testing.T) {
	run(t, func(p *sim.Proc) {
		po := NewPoller(p.Engine(), "kick")
		w := po.Waiter("w")
		s := &stubPollable{}
		s.state = PollIn // ready before registration, no Fire observed
		po.Register(s, PollIn|PollErr, "x")
		ev, ok := w.Wait(p, 0)
		if !ok || ev.Data.(string) != "x" || ev.Events != PollIn {
			t.Fatalf("register kick: %+v, %v", ev, ok)
		}
		po.Done(s)
		// No new edge: a poll must come back empty even though the object
		// is still ready (EPOLLET semantics).
		if ev, ok := w.Wait(p, 0); ok {
			t.Fatalf("spurious level-triggered delivery: %+v", ev)
		}
		s.fire(PollErr)
		ev, ok = w.Wait(p, 0)
		if !ok || ev.Events != (PollIn|PollErr) {
			t.Fatalf("edge after consume: %+v, %v", ev, ok)
		}
	})
}

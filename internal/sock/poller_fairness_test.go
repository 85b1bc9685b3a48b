package sock

import (
	"testing"

	"repro/internal/sim"
)

// stubPollable is a minimal Pollable whose readiness the test scripts
// directly.
type stubPollable struct {
	id    int
	src   sim.NoteSource
	state PollEvents
}

func (s *stubPollable) Ready() bool                 { return s.state != 0 }
func (s *stubPollable) PollState() PollEvents       { return s.state }
func (s *stubPollable) PollSource() *sim.NoteSource { return &s.src }

// fire marks the stub ready and publishes the edge.
func (s *stubPollable) fire(ev PollEvents) {
	s.state |= ev
	s.src.Fire(uint32(ev))
}

// TestPollerRoundRobinRotation: when every registered object is ready on
// every Wait, the head of each delivered batch must rotate through the
// registration order rather than always being the lowest token.
func TestPollerRoundRobinRotation(t *testing.T) {
	run(t, func(p *sim.Proc) {
		e := p.Engine()
		po := NewPoller(e, "fair")
		const n = 4
		stubs := make([]*stubPollable, n)
		for i := range stubs {
			stubs[i] = &stubPollable{id: i}
			po.Register(stubs[i], PollIn, i)
		}
		const rounds = 2 * n
		var heads []int
		for r := 0; r < rounds; r++ {
			for _, s := range stubs {
				s.fire(PollIn)
			}
			evs := po.Wait(p, 0)
			if len(evs) != n {
				t.Fatalf("round %d: %d events, want %d", r, len(evs), n)
			}
			heads = append(heads, evs[0].Data.(int))
		}
		// The head must cycle 0,1,2,3,0,1,... — each object leads exactly
		// rounds/n times.
		lead := make([]int, n)
		for r, h := range heads {
			lead[h]++
			if r > 0 && h != (heads[r-1]+1)%n {
				t.Fatalf("head sequence %v does not rotate", heads)
			}
		}
		for i, c := range lead {
			if c != rounds/n {
				t.Fatalf("object %d led %d/%d batches; heads %v", i, c, rounds, heads)
			}
		}
	})
}

// TestPollerHotItemDoesNotStarve: a consumer that only services the
// first event of every batch must still reach every ready object, even
// with one object refiring on every round — the starvation scenario the
// rotation cursor exists for.
func TestPollerHotItemDoesNotStarve(t *testing.T) {
	run(t, func(p *sim.Proc) {
		e := p.Engine()
		po := NewPoller(e, "hot")
		const n = 5
		stubs := make([]*stubPollable, n)
		for i := range stubs {
			stubs[i] = &stubPollable{id: i}
			po.Register(stubs[i], PollIn, i)
			stubs[i].fire(PollIn) // everyone starts ready
		}
		serviced := make(map[int]bool)
		for r := 0; r < 2*n && len(serviced) < n; r++ {
			evs := po.Wait(p, 0)
			if len(evs) == 0 {
				t.Fatalf("round %d: no events with all objects ready", r)
			}
			head := evs[0].Data.(int)
			serviced[head] = true
			stubs[head].state = 0 // consume only the head...
			stubs[0].fire(PollIn) // ...while object 0 stays hot
			for _, s := range stubs {
				if s.state != 0 {
					s.src.Fire(uint32(s.state)) // unconsumed objects refire
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
		s := &stubPollable{}
		s.state = PollIn // ready before registration, no Fire observed
		po.Register(s, PollIn|PollErr, "x")
		evs := po.Wait(p, 0)
		if len(evs) != 1 || evs[0].Data.(string) != "x" || evs[0].Events != PollIn {
			t.Fatalf("register kick: %+v", evs)
		}
		// No new edge: a poll must come back empty even though the object
		// is still ready (EPOLLET semantics).
		if evs := po.Wait(p, 0); len(evs) != 0 {
			t.Fatalf("spurious level-triggered delivery: %+v", evs)
		}
		s.fire(PollErr)
		evs = po.Wait(p, 0)
		if len(evs) != 1 || evs[0].Events != (PollIn|PollErr) {
			t.Fatalf("edge after consume: %+v", evs)
		}
	})
}

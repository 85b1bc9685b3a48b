package emp

import (
	"testing"

	"repro/internal/sim"
)

// A handle finishes through state it holds by value: a post or an unpost
// allocates the handle (or the unpost record) and its firmware hand-off,
// but no separate wait queue. Each case drives long-lived procs, one
// round per step, and runs a step before measuring so every queue has
// reached its steady-state size; the bound is the count measured on this
// code, so a second allocation per handle fails it.

// stepper runs each body in its own proc once per step and returns the
// step, which releases every proc and runs the engine to quiescence.
func stepper(b *testbed, bodies ...func(p *sim.Proc)) func() {
	gos := make([]*sim.Semaphore, len(bodies))
	for i, body := range bodies {
		gos[i] = sim.NewSemaphore(b.eng, "step", 0)
		g := gos[i]
		b.eng.Spawn("step", func(p *sim.Proc) {
			for {
				g.Acquire(p)
				body(p)
			}
		})
	}
	b.eng.Run()
	return func() {
		for _, g := range gos {
			g.Release()
		}
		b.eng.Run()
	}
}

func checkAllocs(t *testing.T, what string, want float64, step func()) {
	t.Helper()
	step()
	if n := testing.AllocsPerRun(200, step); n > want {
		t.Fatalf("%s allocates %v times per step, want at most %v", what, n, want)
	}
}

func TestPostRecvAllocations(t *testing.T) {
	b := newBed()
	var st Status
	step := stepper(b,
		func(p *sim.Proc) {
			h := b.eps[1].PostRecv(p, AnySource, 7, 64, 100)
			_, st = b.eps[1].WaitRecv(p, h)
		},
		func(p *sim.Proc) {
			p.Sleep(5 * sim.Microsecond) // let the receive get posted
			b.eps[0].Send(p, b.eps[1].Addr(), 7, 64, nil, 200)
		})
	// The arrival's send has a handle too.
	checkAllocs(t, "PostRecv, arrival and WaitRecv", 9, step)
	if st != StatusOK {
		t.Fatalf("receive status %v", st)
	}
}

func TestPostSendAllocations(t *testing.T) {
	b := newBed(withUQ(4))
	var st Status
	step := stepper(b, func(p *sim.Proc) {
		st = b.eps[0].Send(p, b.eps[1].Addr(), 7, 64, nil, 200)
		// Drain the arrival from the peer's unexpected queue, which
		// needs no handle.
		p.Sleep(50 * sim.Microsecond)
		if _, ok := b.eps[1].PollUnexpected(p, AnySource, 7, 64); !ok {
			t.Error("message did not reach the unexpected queue")
		}
	})
	checkAllocs(t, "PostSend and WaitSend", 8, step)
	if st != StatusOK {
		t.Fatalf("send status %v", st)
	}
}

func TestUnpostAllocations(t *testing.T) {
	b := newBed()
	reclaimed := false
	step := stepper(b, func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 7, 64, 100)
		reclaimed = b.eps[1].Unpost(p, h)
	})
	checkAllocs(t, "PostRecv and Unpost", 4, step)
	if !reclaimed {
		t.Fatal("descriptor was not reclaimed")
	}
}

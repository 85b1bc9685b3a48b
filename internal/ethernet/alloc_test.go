package ethernet

import (
	"testing"

	"repro/internal/sim"
)

// countSink counts delivered frames.
type countSink struct{ n int }

func (s *countSink) Deliver(*Frame) { s.n++ }

// A warm frame hop — Port.Transmit onto the station link, forward at the
// switch, Deliver at the destination station — allocates nothing of its
// own: the switch, the port and the engine schedule through fns bound
// once, so the one allocation per step is the frame the test passes in.
func TestFrameHopAllocatesOnlyTheFrame(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e)
	src := sw.Attach(&countSink{})
	dst := &countSink{}
	to := sw.Attach(dst)
	step := func() {
		src.Transmit(&Frame{Src: src.Addr(), Dst: to.Addr(), PayloadLen: 64})
		e.Run()
	}
	step()
	if n := testing.AllocsPerRun(200, step); n != 1 {
		t.Fatalf("a frame hop allocates %v times per step, want 1 (the frame)", n)
	}
	if dst.n != 202 {
		t.Fatalf("%d frames delivered, want 202", dst.n)
	}
}

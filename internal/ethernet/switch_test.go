package ethernet

import (
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/sim"
)

// uniformPlan applies the given loss and duplication rates to every
// frame.
func uniformPlan(loss, dup float64) *faults.Plan {
	return &faults.Plan{Clauses: []faults.Clause{faults.Uniform(loss, dup, 0, 0)}}
}

// sink records delivered frames with timestamps.
type sink struct {
	eng    *sim.Engine
	frames []*Frame
	times  []sim.Time
}

func (s *sink) Deliver(f *Frame) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.eng.Now())
}

func build(t *testing.T, n int) (*sim.Engine, *Switch, []*Port, []*sink) {
	t.Helper()
	e := sim.NewEngine()
	sw := NewSwitch(e)
	ports := make([]*Port, n)
	sinks := make([]*sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &sink{eng: e}
		ports[i] = sw.Attach(sinks[i])
		if ports[i].Addr() != Addr(i) {
			t.Fatalf("port %d got addr %d", i, ports[i].Addr())
		}
	}
	return e, sw, ports, sinks
}

func TestFrameWireBytes(t *testing.T) {
	cases := []struct {
		payload, want int
	}{
		{1500, 1500 + PerFrameOverhead},
		{46, 46 + PerFrameOverhead},
		{4, 46 + PerFrameOverhead}, // padded to minimum
		{0, 46 + PerFrameOverhead},
	}
	for _, c := range cases {
		f := &Frame{PayloadLen: c.payload}
		if got := f.wireBytes(); got != c.want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestFrameOverJumboMTUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-jumbo frame did not panic")
		}
	}()
	f := &Frame{PayloadLen: JumboMTU + 1}
	f.wireBytes()
}

func TestJumboFrameAccepted(t *testing.T) {
	f := &Frame{PayloadLen: JumboMTU}
	if got := f.wireBytes(); got != JumboMTU+PerFrameOverhead {
		t.Fatalf("jumbo WireBytes = %d", got)
	}
}

func TestUnicastDelivery(t *testing.T) {
	e, _, ports, sinks := build(t, 2)
	f := &Frame{Src: 0, Dst: 1, PayloadLen: 1000, Payload: "hello"}
	e.After(0, func() { ports[0].Transmit(f) })
	e.Run()
	if len(sinks[1].frames) != 1 {
		t.Fatalf("station 1 received %d frames, want 1", len(sinks[1].frames))
	}
	if len(sinks[0].frames) != 0 {
		t.Fatal("sender received its own unicast frame")
	}
	if sinks[1].frames[0].Payload != "hello" {
		t.Fatal("payload not preserved")
	}
	// Expected latency: wire + prop + fwd + wire + prop.
	want := f.WireTime() + propDelay + forwardLatency + f.WireTime() + propDelay
	if got := sinks[1].times[0]; got != sim.Time(want) {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestOutputPortQueueing(t *testing.T) {
	// Two senders converge on one receiver at the same instant: the
	// second frame must queue behind the first on the output port.
	e, _, ports, sinks := build(t, 3)
	f1 := &Frame{Src: 0, Dst: 2, PayloadLen: 1500}
	f2 := &Frame{Src: 1, Dst: 2, PayloadLen: 1500}
	e.After(0, func() {
		ports[0].Transmit(f1)
		ports[1].Transmit(f2)
	})
	e.Run()
	if len(sinks[2].frames) != 2 {
		t.Fatalf("received %d frames, want 2", len(sinks[2].frames))
	}
	gap := sinks[2].times[1].Sub(sinks[2].times[0])
	if gap != f2.WireTime() {
		t.Fatalf("inter-delivery gap %v, want one wire time %v (output queueing)", gap, f2.WireTime())
	}
}

func TestSenderPipelining(t *testing.T) {
	// Back-to-back transmissions from one sender are spaced by wire time
	// on the sender's transmitter, giving line-rate streaming.
	e, _, ports, sinks := build(t, 2)
	const n = 10
	e.After(0, func() {
		for i := 0; i < n; i++ {
			ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 1500})
		}
	})
	e.Run()
	if len(sinks[1].frames) != n {
		t.Fatalf("received %d, want %d", len(sinks[1].frames), n)
	}
	wire := (&Frame{PayloadLen: 1500}).WireTime()
	for i := 1; i < n; i++ {
		gap := sinks[1].times[i].Sub(sinks[1].times[i-1])
		if gap != wire {
			t.Fatalf("gap %d = %v, want %v", i, gap, wire)
		}
	}
	// Effective payload bandwidth must be just under 1 Gbps.
	elapsed := sinks[1].times[n-1].Sub(sinks[1].times[0]) + wire
	bps := float64(n*1500*8) / elapsed.Seconds()
	if bps < 940e6 || bps > 1000e6 {
		t.Fatalf("streaming bandwidth %.0f bps out of expected GigE range", bps)
	}
}

func TestWrongSourcePanics(t *testing.T) {
	e, _, ports, _ := build(t, 2)
	e.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched source did not panic")
			}
		}()
		ports[0].Transmit(&Frame{Src: 1, Dst: 0, PayloadLen: 64})
	})
	e.Run()
}

func TestLossInjection(t *testing.T) {
	e, sw, ports, sinks := build(t, 2)
	sw.SetFaults(uniformPlan(0.5, 0))
	e.Seed(123)
	const n = 200
	e.After(0, func() {
		for i := 0; i < n; i++ {
			ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100})
		}
	})
	e.Run()
	got := len(sinks[1].frames)
	if got == 0 || got == n {
		t.Fatalf("loss rate 0.5 delivered %d/%d frames", got, n)
	}
	if drops := sw.drops.Value; drops+int64(got) != n {
		t.Fatalf("drops %d + delivered %d != sent %d", drops, got, n)
	}
}

func TestPortStats(t *testing.T) {
	e, _, ports, _ := build(t, 2)
	e.After(0, func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 700})
	})
	e.Run()
	s0, s1 := ports[0].Stats(), ports[1].Stats()
	if s0.TxFrames != 1 || s0.TxBytes != 700 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.RxFrames != 1 || s1.RxBytes != 700 {
		t.Fatalf("receiver stats %+v", s1)
	}
}

// Property: every transmitted frame is delivered exactly once (no loss),
// and per-destination delivery order matches per-destination send order.
func TestDeliveryConservationProperty(t *testing.T) {
	f := func(dests []uint8, sizes []uint16) bool {
		if len(dests) == 0 {
			return true
		}
		if len(dests) > 100 {
			dests = dests[:100]
		}
		e := sim.NewEngine()
		sw := NewSwitch(e)
		const n = 4
		sinks := make([]*sink, n)
		ports := make([]*Port, n)
		for i := 0; i < n; i++ {
			sinks[i] = &sink{eng: e}
			ports[i] = sw.Attach(sinks[i])
		}
		type key struct{ dst, seq int }
		sent := 0
		e.After(0, func() {
			for i, d := range dests {
				dst := Addr(int(d) % (n - 1))
				if dst >= 1 {
					dst++ // skip sender 0... keep src=0, dst in 1..3
				} else {
					dst = 1
				}
				size := 46
				if i < len(sizes) {
					size = int(sizes[i])%MTU + 1
				}
				ports[0].Transmit(&Frame{Src: 0, Dst: dst, PayloadLen: size, Payload: sent})
				sent++
			}
		})
		e.Run()
		total := 0
		for i := 1; i < n; i++ {
			prev := -1
			for _, fr := range sinks[i].frames {
				seq := fr.Payload.(int)
				if seq <= prev {
					return false // reordered within a destination
				}
				prev = seq
				total++
			}
		}
		return total == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchAccessors(t *testing.T) {
	e, sw, ports, _ := build(t, 3)
	if sw.ID() != 0 || sw.Name() != "switch" || sw.dead {
		t.Fatalf("id=%d name=%q dead=%v", sw.ID(), sw.Name(), sw.dead)
	}
	e.After(0, func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 1500})
	})
	e.Run()
	if sw.Forwards() != 1 || sw.dups.Value != 0 {
		t.Fatalf("forwards=%d dups=%d", sw.Forwards(), sw.dups.Value)
	}
}

func TestTxBacklogReflectsQueuedFrames(t *testing.T) {
	e, _, ports, _ := build(t, 2)
	e.After(0, func() {
		if ports[0].TxBacklog() != 0 {
			t.Error("idle port has backlog")
		}
		for i := 0; i < 4; i++ {
			ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 1500})
		}
		want := 4 * (&Frame{PayloadLen: 1500}).WireTime()
		if got := ports[0].TxBacklog(); got != want {
			t.Errorf("backlog = %v, want %v", got, want)
		}
	})
	e.Run()
}

func TestDuplicationInjectionCountsAndDelivers(t *testing.T) {
	e, sw, ports, sinks := build(t, 2)
	sw.SetFaults(uniformPlan(0, 1)) // every frame duplicated
	e.After(0, func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100})
	})
	e.Run()
	if dups := sw.dups.Value; dups != 1 {
		t.Fatalf("dups = %d", dups)
	}
	if len(sinks[1].frames) != 2 {
		t.Fatalf("delivered %d frames, want the original plus one duplicate", len(sinks[1].frames))
	}
}

func TestUnknownStationDroppedAsNoRoute(t *testing.T) {
	e, sw, ports, sinks := build(t, 2)
	e.After(0, func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 5, PayloadLen: 100})
	})
	e.Run()
	if drops := sw.fab.routeDrops.Value; drops != 1 || sw.Forwards() != 0 {
		t.Fatalf("route drops=%d forwards=%d, want 1 and 0", drops, sw.Forwards())
	}
	for i, sk := range sinks {
		if len(sk.frames) != 0 {
			t.Fatalf("station %d received a frame addressed to nobody", i)
		}
	}
}

package emp

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
)

// testbed wires two hosts with EMP endpoints through a switch.
type testbed struct {
	eng    *sim.Engine
	sw     *ethernet.Switch
	hosts  [2]*kernel.Host
	nics   [2]*nic.NIC
	eps    [2]*Endpoint
	plan   *faults.Plan
	epCfg  Config
	nicCfg nic.Config
}

type bedOpt func(*testbed)

func withLoss(rate float64) bedOpt {
	return func(b *testbed) {
		b.plan = &faults.Plan{Clauses: []faults.Clause{faults.Uniform(rate, 0, 0, 0)}}
	}
}

func withUQ(slots int) bedOpt {
	return func(b *testbed) { b.epCfg.UnexpectedSlots = slots }
}

func newBed(opts ...bedOpt) *testbed {
	b := &testbed{
		eng:    sim.NewEngine(),
		epCfg:  DefaultEndpointConfig(),
		nicCfg: nic.DefaultConfig(),
	}
	for _, o := range opts {
		o(b)
	}
	b.sw = ethernet.NewSwitch(b.eng)
	b.sw.SetFaults(b.plan)
	for i := 0; i < 2; i++ {
		b.hosts[i] = kernel.NewHost(b.eng, "host", 4)
		b.nics[i] = nic.New(b.eng, "nic", b.nicCfg)
		b.nics[i].Attach(b.sw)
		b.eps[i] = NewEndpoint(b.eng, b.hosts[i], b.nics[i], b.epCfg)
	}
	return b
}

func TestSingleMessageDelivery(t *testing.T) {
	b := newBed()
	var got Message
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 7, 4096, 100)
		got, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond) // let the receive get posted
		b.eps[0].Send(p, b.eps[1].Addr(), 7, 1000, "payload", 200)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK {
		t.Fatalf("recv status %v", st)
	}
	if got.Len != 1000 || got.Tag != 7 || got.Src != b.eps[0].Addr() || got.Data != "payload" {
		t.Fatalf("message %+v", got)
	}
	if n := b.eps[1].MsgsDelivered.Value; n != 1 {
		t.Fatalf("msgs delivered = %d, want 1", n)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	b := newBed()
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 1, 0, KeyNone)
		_, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 1, 0, nil, KeyNone)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK {
		t.Fatalf("zero-length message status %v", st)
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	// A 100 KB message spans many frames and must arrive intact.
	b := newBed()
	const size = 100 << 10
	var got Message
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, b.eps[0].Addr(), 3, size, 100)
		got, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 3, size, "big", 200)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK || got.Len != size {
		t.Fatalf("status %v len %d", st, got.Len)
	}
	want := FragCount(size)
	if int(b.nics[0].TxFrames.Value) < want {
		t.Fatalf("sender transmitted %d frames, want >= %d", b.nics[0].TxFrames.Value, want)
	}
}

func TestFragCount(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {MaxFragPayload, 1}, {MaxFragPayload + 1, 2},
		{10 * MaxFragPayload, 10}, {10*MaxFragPayload + 1, 11},
	}
	for _, c := range cases {
		if got := FragCount(c.n); got != c.want {
			t.Errorf("FragCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if fragLen(100, 0, MaxFragPayload) != 100 || fragLen(MaxFragPayload+5, 1, MaxFragPayload) != 5 {
		t.Error("fragLen wrong")
	}
	if fragLen(0, 0, MaxFragPayload) != 0 || fragLen(100, 5, MaxFragPayload) != 0 {
		t.Error("fragLen edge cases wrong")
	}
	// Jumbo framing carries proportionally more per fragment.
	if fragCountFor(100<<10, 8976) != 12 {
		t.Errorf("jumbo fragCount = %d", fragCountFor(100<<10, 8976))
	}
	if fragLen(100, 0, 0) != 100 {
		t.Error("fragLen with zero maxFrag should fall back to the standard payload")
	}
}

// pingPong measures mean one-way latency over iters round trips for
// n-byte messages, EMP-level (pre-posted receives both sides).
func pingPong(b *testbed, n, iters int) sim.Duration {
	var total sim.Duration
	b.eng.Spawn("node0", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			h := b.eps[0].PostRecv(p, b.eps[1].Addr(), 9, n, 11)
			start := p.Now()
			b.eps[0].Send(p, b.eps[1].Addr(), 8, n, nil, 10)
			b.eps[0].WaitRecv(p, h)
			total += p.Now().Sub(start)
		}
	})
	b.eng.Spawn("node1", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			h := b.eps[1].PostRecv(p, b.eps[0].Addr(), 8, n, 21)
			b.eps[1].WaitRecv(p, h)
			b.eps[1].Send(p, b.eps[0].Addr(), 9, n, nil, 20)
		}
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	return total / sim.Duration(2*iters)
}

func TestRawEMPLatencyNear28us(t *testing.T) {
	// The paper's anchor: raw EMP achieves ~28 us one-way for 4-byte
	// messages. The model must land close for the substrate comparisons
	// to mean anything.
	b := newBed()
	lat := pingPong(b, 4, 50)
	if us := lat.Micros(); us < 24 || us > 32 {
		t.Fatalf("4-byte EMP latency %.2f us, want ~28 us", us)
	}
}

func TestStreamBandwidthMidEightHundreds(t *testing.T) {
	// The paper's anchor: EMP streams in the mid-800 Mbps range on
	// Gigabit Ethernet. Pre-post a window of receives and stream.
	b := newBed()
	const msgSize = 64 << 10
	const msgs = 64
	var start, end sim.Time
	b.eng.Spawn("recv", func(p *sim.Proc) {
		handles := make([]*RecvHandle, 0, msgs)
		for i := 0; i < msgs; i++ {
			handles = append(handles, b.eps[1].PostRecv(p, b.eps[0].Addr(), 5, msgSize, 100))
		}
		for _, h := range handles {
			if _, st := b.eps[1].WaitRecv(p, h); st != StatusOK {
				t.Errorf("recv status %v", st)
			}
		}
		end = p.Now()
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			b.eps[0].Send(p, b.eps[1].Addr(), 5, msgSize, nil, 10)
		}
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if end == 0 {
		t.Fatal("stream did not complete")
	}
	bits := float64(msgs*msgSize) * 8
	mbps := bits / end.Sub(start).Seconds() / 1e6
	if mbps < 780 || mbps > 980 {
		t.Fatalf("EMP stream bandwidth %.0f Mbps, want mid-800s", mbps)
	}
}

func TestTagMatchingSelectsRightDescriptor(t *testing.T) {
	b := newBed()
	results := make(map[Tag]Message)
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h1 := b.eps[1].PostRecv(p, AnySource, 1, 64, 101)
		h2 := b.eps[1].PostRecv(p, AnySource, 2, 64, 102)
		m2, _ := b.eps[1].WaitRecv(p, h2)
		m1, _ := b.eps[1].WaitRecv(p, h1)
		results[1] = m1
		results[2] = m2
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		// Send tag 2 first: it must match the second descriptor, not
		// the first in the list.
		b.eps[0].Send(p, b.eps[1].Addr(), 2, 8, "two", 10)
		b.eps[0].Send(p, b.eps[1].Addr(), 1, 8, "one", 10)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if results[1].Data != "one" || results[2].Data != "two" {
		t.Fatalf("tag matching delivered %+v", results)
	}
}

func TestSourceSpecificMatching(t *testing.T) {
	// Three endpoints: receiver posts a descriptor for a specific
	// source; a message from the other source must not match it.
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng)
	var eps [3]*Endpoint
	cfg := DefaultEndpointConfig()
	cfg.UnexpectedSlots = 4
	for i := range eps {
		h := kernel.NewHost(eng, "h", 4)
		n := nic.New(eng, "n", nic.DefaultConfig())
		n.Attach(sw)
		eps[i] = NewEndpoint(eng, h, n, cfg)
	}
	var fromB, fromC Message
	eng.Spawn("recvA", func(p *sim.Proc) {
		hB := eps[0].PostRecv(p, eps[1].Addr(), 5, 64, 1)
		hC := eps[0].PostRecv(p, eps[2].Addr(), 5, 64, 2)
		fromC, _ = eps[0].WaitRecv(p, hC)
		fromB, _ = eps[0].WaitRecv(p, hB)
	})
	eng.Spawn("sendC", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		eps[2].Send(p, eps[0].Addr(), 5, 4, "from-c", 1)
	})
	eng.Spawn("sendB", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		eps[1].Send(p, eps[0].Addr(), 5, 4, "from-b", 1)
	})
	eng.RunUntil(sim.Time(sim.Second))
	if fromB.Data != "from-b" || fromC.Data != "from-c" {
		t.Fatalf("source matching wrong: B=%v C=%v", fromB.Data, fromC.Data)
	}
}

func TestUnexpectedMessageDroppedAndRetransmitted(t *testing.T) {
	// No descriptor posted, no unexpected queue: the message must be
	// dropped and delivered later via retransmission once the receiver
	// posts.
	b := newBed()
	var st Status
	b.eng.Spawn("send", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 4, 256, "late", 10)
	})
	b.eng.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(150 * sim.Microsecond) // after the first arrival was dropped
		h := b.eps[1].PostRecv(p, AnySource, 4, 256, 20)
		_, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK {
		t.Fatalf("message never delivered via retransmission: %v", st)
	}
	if b.eps[1].FramesDropped.Value == 0 {
		t.Fatal("expected the first arrival to be dropped")
	}
	if b.eps[0].Retransmits.Value == 0 {
		t.Fatal("expected sender retransmissions")
	}
}

func TestUnexpectedQueueAbsorbsEarlyMessage(t *testing.T) {
	// With the unexpected queue enabled the early message is buffered
	// at arrival and claimed by the later post — no retransmission.
	b := newBed(withUQ(8))
	var st Status
	var got Message
	b.eng.Spawn("send", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 4, 256, "early", 10)
	})
	b.eng.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		h := b.eps[1].PostRecv(p, AnySource, 4, 256, 20)
		got, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK || got.Data != "early" {
		t.Fatalf("UQ claim failed: %v %v", st, got.Data)
	}
	if n := b.eps[1].UnexpectedHits.Value; n != 1 {
		t.Fatalf("unexpected hits = %d, want 1", n)
	}
	if b.eps[0].Retransmits.Value != 0 {
		t.Fatal("UQ path should not need retransmission")
	}
}

func TestUnexpectedQueueSlotExhaustion(t *testing.T) {
	// Only one UQ slot: the second early message must be dropped.
	b := newBed(withUQ(1))
	b.eng.Spawn("send", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 4, 64, "a", 10)
		b.eps[0].Send(p, b.eps[1].Addr(), 4, 64, "b", 10)
		p.Sleep(100 * sim.Microsecond)
	})
	b.eng.RunUntil(sim.Time(100 * sim.Microsecond))
	if b.eps[1].UnexpectedQueued() != 1 {
		t.Fatalf("UQ holds %d messages, want 1", b.eps[1].UnexpectedQueued())
	}
	if b.eps[1].FramesDropped.Value == 0 {
		t.Fatal("overflow message should have been dropped")
	}
}

func TestUnexpectedQueueClaimFreesSlot(t *testing.T) {
	// Claiming a parked message rings the slot-free doorbell; with one
	// slot, the next unexpected message needs the freed slot.
	b := newBed(withUQ(1))
	var got Message
	var ok bool
	b.eng.Spawn("send", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 9, 32, "parked", 1)
	})
	b.eng.Spawn("claim", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		got, ok = b.eps[1].PollUnexpected(p, b.eps[0].Addr(), 9, 64)
		b.eps[0].Send(p, b.eps[1].Addr(), 12, 32, "second", 2)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if !ok || got.Data != "parked" {
		t.Fatalf("claim = %v, %v", got.Data, ok)
	}
	if !b.eps[1].PeekUnexpected(b.eps[0].Addr(), 12) {
		t.Fatal("slot freed by claim was not reusable")
	}
}

func TestLossRecovery(t *testing.T) {
	// 5% frame loss: every message must still be delivered, via NACK or
	// RTO-driven retransmission.
	b := newBed(withLoss(0.05))
	b.eng.Seed(7)
	const msgs = 30
	const size = 20 << 10
	delivered := 0
	b.eng.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			h := b.eps[1].PostRecv(p, b.eps[0].Addr(), 6, size, 100)
			if _, st := b.eps[1].WaitRecv(p, h); st == StatusOK {
				delivered++
			}
		}
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i := 0; i < msgs; i++ {
			b.eps[0].Send(p, b.eps[1].Addr(), 6, size, i, 10)
		}
	})
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	if delivered != msgs {
		t.Fatalf("delivered %d/%d under loss", delivered, msgs)
	}
	if b.eps[0].Retransmits.Value == 0 {
		t.Fatal("expected retransmissions under 5%% loss")
	}
	if b.eps[0].SendsFailed.Value != 0 {
		t.Fatal("no send should fail at 5% loss")
	}
}

func TestTruncationOnOverflow(t *testing.T) {
	b := newBed()
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 2, 100, 20)
		_, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 2, 5000, nil, 10)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusTruncated {
		t.Fatalf("status %v, want truncated", st)
	}
}

func TestUnpostReclaimsDescriptor(t *testing.T) {
	b := newBed()
	var reclaimed bool
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 2, 64, 20)
		p.Sleep(50 * sim.Microsecond)
		reclaimed = b.eps[1].Unpost(p, h)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if !reclaimed {
		t.Fatal("unpost of unused descriptor failed")
	}
	if b.eps[1].PrepostedDescriptors() != 0 {
		t.Fatal("descriptor leaked after unpost")
	}
}

func TestUnpostRacesWithArrival(t *testing.T) {
	// The message arrives before the unpost: unpost must report false
	// and the message must be delivered.
	b := newBed()
	var reclaimed bool
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 2, 64, 20)
		p.Sleep(200 * sim.Microsecond)
		reclaimed = b.eps[1].Unpost(p, h)
		st = h.Status()
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 2, 8, nil, 10)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if reclaimed {
		t.Fatal("unpost claimed a consumed descriptor")
	}
	if st != StatusOK {
		t.Fatalf("message status %v", st)
	}
}

func TestTranslationCache(t *testing.T) {
	b := newBed()
	b.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			b.eps[0].PostSend(p, b.eps[1].Addr(), 1, 64, nil, 42)
		}
		// A different key misses once.
		b.eps[0].PostSend(p, b.eps[1].Addr(), 1, 64, nil, 43)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	s := &b.eps[0].Counters
	if s.CacheMisses.Value != 2 {
		t.Fatalf("cache misses = %d, want 2 (keys 42 and 43)", s.CacheMisses.Value)
	}
	if s.CacheHits.Value != 4 {
		t.Fatalf("cache hits = %d, want 4", s.CacheHits.Value)
	}
}

func TestTranslationCacheEviction(t *testing.T) {
	// Receives register their buffers without any traffic: tcacheCap+1
	// distinct keys evict key 1, so key 1 misses again (evicting key 2)
	// and key 3 still hits.
	b := newBed()
	ep := b.eps[1]
	b.eng.Spawn("post", func(p *sim.Proc) {
		for k := BufKey(1); k <= tcacheCap+1; k++ {
			ep.PostRecv(p, AnySource, 1, 8, k)
		}
		ep.PostRecv(p, AnySource, 1, 8, 1) // miss again
		ep.PostRecv(p, AnySource, 1, 8, 3) // hit
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if ep.CacheMisses.Value != tcacheCap+2 || ep.CacheHits.Value != 1 {
		t.Fatalf("misses = %d, hits = %d; want %d and 1 with cap-%d FIFO eviction",
			ep.CacheMisses.Value, ep.CacheHits.Value, tcacheCap+2, tcacheCap)
	}
}

func TestKeyNoneNeverPins(t *testing.T) {
	b := newBed()
	b.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.eps[0].PostSend(p, b.eps[1].Addr(), 1, 0, nil, KeyNone)
		}
	})
	b.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	s := &b.eps[0].Counters
	if s.CacheMisses.Value != 0 || s.CacheHits.Value != 0 {
		t.Fatalf("KeyNone touched the cache: %+v", *s)
	}
}

func TestAckWindowEveryFourFrames(t *testing.T) {
	// A message of 12 fragments should generate about 3 acks (one per 4
	// frames, the last batch coinciding with completion).
	b := newBed()
	size := 12 * MaxFragPayload
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 2, size, 20)
		b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 2, size, nil, 10)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	acks := b.eps[1].AcksSent.Value
	if acks != 3 {
		t.Fatalf("acks sent = %d for 12 fragments, want 3 (window of 4)", acks)
	}
}

func TestBidirectionalTrafficNoDeadlock(t *testing.T) {
	// Full-duplex simultaneous streams in both directions.
	b := newBed()
	const msgs = 20
	const size = 32 << 10
	doneCount := 0
	for i := 0; i < 2; i++ {
		me, peer := i, 1-i
		b.eng.Spawn("node", func(p *sim.Proc) {
			handles := make([]*RecvHandle, 0, msgs)
			for j := 0; j < msgs; j++ {
				handles = append(handles, b.eps[me].PostRecv(p, b.eps[peer].Addr(), Tag(10+peer), size, BufKey(me*100+1)))
			}
			for j := 0; j < msgs; j++ {
				b.eps[me].Send(p, b.eps[peer].Addr(), Tag(10+me), size, nil, BufKey(me*100+2))
			}
			for _, h := range handles {
				if _, st := b.eps[me].WaitRecv(p, h); st != StatusOK {
					t.Errorf("node %d recv status %v", me, st)
				}
			}
			doneCount++
		})
	}
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if doneCount != 2 {
		t.Fatalf("only %d/2 nodes finished — deadlock?", doneCount)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Duration, Counters) {
		b := newBed(withLoss(0.02))
		b.eng.Seed(99)
		lat := pingPong(b, 1024, 20)
		return lat, b.eps[0].Counters
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("replay diverged: %v/%v vs %v/%v", l1, s1, l2, s2)
	}
}

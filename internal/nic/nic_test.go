package nic

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// pair attaches two NICs to one switch, each with a sink that drops
// what it receives (a test installs its own to look at the frames).
func pair(e *sim.Engine) (*NIC, *NIC, *ethernet.Switch) {
	sw := ethernet.NewSwitch(e)
	a := New(e, "nicA", DefaultConfig())
	b := New(e, "nicB", DefaultConfig())
	for _, n := range []*NIC{a, b} {
		n.Attach(sw)
		n.SetSink(func(*ethernet.Frame) {})
	}
	return a, b, sw
}

// TestFrameRoundTripThroughRxQueue sends one frame from a to b, where the
// sink feeds a receive queue that a firmware loop drains, as the receive
// firmware does.
func TestFrameRoundTripThroughRxQueue(t *testing.T) {
	e := sim.NewEngine()
	a, b, _ := pair(e)
	rxq := sim.NewFIFO[*ethernet.Frame](e, "nicB.rxq", 0)
	b.SetSink(func(f *ethernet.Frame) {
		if !rxq.TryPut(f) {
			t.Error("receive queue refused a frame")
		}
	})
	var got *ethernet.Frame
	e.Spawn("rxfw", func(p *sim.Proc) {
		f, ok := rxq.Get(p)
		if ok {
			got = f
		}
	})
	e.Spawn("txfw", func(p *sim.Proc) {
		a.Transmit(&ethernet.Frame{Src: a.Addr(), Dst: b.Addr(), PayloadLen: 64, Payload: "x"})
	})
	e.Run()
	if got == nil || got.Payload != "x" {
		t.Fatal("frame did not arrive at receive firmware")
	}
	if a.TxFrames.Value != 1 || b.RxFrames.Value != 1 {
		t.Fatalf("counters tx=%d rx=%d", a.TxFrames.Value, b.RxFrames.Value)
	}
}

func TestDMAChargesAndSerializes(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, "n", DefaultConfig())
	var t1, t2 sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		n.DMA(p, 1500)
		t1 = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		n.DMA(p, 1500)
		t2 = p.Now()
	})
	e.Run()
	per := dmaSetup + sim.BytesToDuration(1500, dmaBandwidth*8)
	if t1 != sim.Time(per) {
		t.Fatalf("first DMA done at %v, want %v", t1, per)
	}
	if t2 != sim.Time(2*per) {
		t.Fatalf("second DMA done at %v, want %v (engine contention)", t2, 2*per)
	}
	if n.DMABytes.Value != 3000 {
		t.Fatalf("DMA bytes = %d", n.DMABytes.Value)
	}
}

func TestDMANegativeClamped(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, "n", DefaultConfig())
	e.Spawn("a", func(p *sim.Proc) { n.DMA(p, -10) })
	e.Run()
	if n.DMABytes.Value != 0 {
		t.Fatal("negative DMA size not clamped")
	}
}

func TestTagMatchWalkCost(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, "n", DefaultConfig())
	var d0, d10 sim.Duration
	e.Spawn("fw", func(p *sim.Proc) {
		d0 = n.TagMatch(p, 0)
		d10 = n.TagMatch(p, 10)
	})
	e.Run()
	if d0 != TagMatchBase {
		t.Fatalf("walk(0) = %v, want base %v", d0, TagMatchBase)
	}
	want := TagMatchBase + 10*TagMatchPerDesc
	if d10 != want {
		t.Fatalf("walk(10) = %v, want %v", d10, want)
	}
	// The paper's number: each extra descriptor costs 550 ns.
	if TagMatchPerDesc != 550*sim.Nanosecond {
		t.Fatalf("per-descriptor cost %v, want 550 ns", TagMatchPerDesc)
	}
	if n.TagWalked.Value != 10 {
		t.Fatalf("walked counter = %d", n.TagWalked.Value)
	}
}

func TestWaitTxRoomStallsOnBacklog(t *testing.T) {
	e := sim.NewEngine()
	a, b, _ := pair(e)
	var stalledAt, resumedAt sim.Time
	e.Spawn("txfw", func(p *sim.Proc) {
		// Flood the MAC with more than the FIFO depth of full frames.
		for i := 0; i < 20; i++ {
			a.Transmit(&ethernet.Frame{Src: a.Addr(), Dst: b.Addr(), PayloadLen: 1500})
		}
		stalledAt = p.Now()
		a.WaitTxRoom(p)
		resumedAt = p.Now()
	})
	e.Run()
	if resumedAt <= stalledAt {
		t.Fatalf("WaitTxRoom did not stall (stalled %v resumed %v)", stalledAt, resumedAt)
	}
	// After resuming, the backlog must be within the FIFO bound.
	backlog := (20 * ethernet.MaxFrameWireTime()) - sim.Duration(resumedAt)
	limit := sim.Duration(macQueueFrames) * ethernet.MaxFrameWireTime()
	if backlog > limit {
		t.Fatalf("backlog %v still exceeds limit %v", backlog, limit)
	}
}

func TestJumboConfig(t *testing.T) {
	cfg := JumboConfig()
	if cfg.MTU != ethernet.JumboMTU {
		t.Fatalf("jumbo MTU = %d", cfg.MTU)
	}
	// Only the framing changes.
	if cfg.HashedMatch || cfg.RxCPUs != DefaultConfig().RxCPUs {
		t.Fatal("jumbo config altered more than the frame size")
	}
}

func TestEffectiveRxPerFrame(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.EffectiveRxPerFrame() != rxPerFrame {
		t.Fatal("one CPU should charge the full cost")
	}
	cfg.RxCPUs = 2
	if cfg.EffectiveRxPerFrame() != rxPerFrame/2 {
		t.Fatal("two CPUs should halve the charge")
	}
	cfg.RxCPUs = 0
	if cfg.EffectiveRxPerFrame() != rxPerFrame {
		t.Fatal("zero CPUs should clamp to one")
	}
}

func TestSetSinkIntercepts(t *testing.T) {
	e := sim.NewEngine()
	a, b, _ := pair(e)
	var sunk *ethernet.Frame
	b.SetSink(func(f *ethernet.Frame) { sunk = f })
	e.Spawn("tx", func(p *sim.Proc) {
		a.Transmit(&ethernet.Frame{Src: a.Addr(), Dst: b.Addr(), PayloadLen: 64, Payload: "s"})
	})
	e.Run()
	if sunk == nil || sunk.Payload != "s" {
		t.Fatal("sink did not receive the frame")
	}
	if a.TxFrames.Value != 1 || b.RxFrames.Value != 1 {
		t.Fatalf("counters tx=%d rx=%d", a.TxFrames.Value, b.RxFrames.Value)
	}
}

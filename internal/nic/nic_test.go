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

// DMA prices one transfer and counts its bytes; the firmware holds the
// engine for the hold time, one transfer at a time.
func TestDMACost(t *testing.T) {
	n := New(sim.NewEngine(), "n", DefaultConfig())
	per := dmaSetup + sim.BytesToDuration(1500, dmaBandwidth*8)
	for i := 0; i < 2; i++ {
		if stall, hold := n.DMA(1500); stall != 0 || hold != per {
			t.Fatalf("1500 B transfer: stall %v, hold %v; want 0 and %v", stall, hold, per)
		}
	}
	if n.DMABytes.Value != 3000 || n.DMAStalls.Value != 0 {
		t.Fatalf("DMA bytes = %d, stalls = %d", n.DMABytes.Value, n.DMAStalls.Value)
	}
}

func TestDMANegativeClamped(t *testing.T) {
	n := New(sim.NewEngine(), "n", DefaultConfig())
	if _, hold := n.DMA(-10); hold != dmaSetup || n.DMABytes.Value != 0 {
		t.Fatalf("negative DMA size not clamped: %v, %d bytes", hold, n.DMABytes.Value)
	}
}

func TestTagMatchWalkCost(t *testing.T) {
	n := New(sim.NewEngine(), "n", DefaultConfig())
	d0 := n.TagMatch(0)
	d10 := n.TagMatch(10)
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
	if n.TagWalked.Value != 10 || n.TagLookups.Value != 2 {
		t.Fatalf("walked counter = %d over %d lookups", n.TagWalked.Value, n.TagLookups.Value)
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
		for d := a.TxRoomWait(); d > 0; d = a.TxRoomWait() {
			p.Sleep(d)
		}
		resumedAt = p.Now()
	})
	e.Run()
	if resumedAt <= stalledAt {
		t.Fatalf("TxRoomWait did not stall (stalled %v resumed %v)", stalledAt, resumedAt)
	}
	// After resuming, the backlog must be exactly at the FIFO bound.
	backlog := (20 * ethernet.MaxFrameWireTime()) - sim.Duration(resumedAt)
	limit := sim.Duration(macQueueFrames) * ethernet.MaxFrameWireTime()
	if backlog != limit {
		t.Fatalf("backlog %v at resume, want the limit %v", backlog, limit)
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

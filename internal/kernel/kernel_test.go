package kernel

import (
	"testing"

	"repro/internal/sim"
)

func TestSyscallCharges(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 4)
	var elapsed sim.Duration
	e.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		h.Syscall(p)
		elapsed = p.Now().Sub(start)
	})
	e.Run()
	if elapsed != syscallCost {
		t.Fatalf("syscall took %v, want %v", elapsed, syscallCost)
	}
	if h.Syscalls.Value != 1 {
		t.Fatalf("syscall counter = %d", h.Syscalls.Value)
	}
}

func TestCopyTimeScalesWithSize(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	small := h.CopyTime(1000)
	big := h.CopyTime(1000000)
	if big <= small {
		t.Fatalf("copy time not monotonic: %v vs %v", small, big)
	}
	// 1 MB at 350 MB/s is about 2.86 ms.
	if ms := big.Seconds() * 1e3; ms < 2 || ms > 4 {
		t.Fatalf("1MB copy = %.3f ms, want ~2.9 ms", ms)
	}
	if h.CopyTime(0) != 0 || h.CopyTime(-5) != 0 {
		t.Fatal("zero/negative copy should cost nothing")
	}
}

func TestCopyChargesProcess(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		h.Copy(p, 64<<10)
		end = p.Now()
	})
	e.Run()
	if end != sim.Time(h.CopyTime(64<<10)) {
		t.Fatalf("copy finished at %v, want %v", end, h.CopyTime(64<<10))
	}
	if h.CopiedBytes.Value != 64<<10 {
		t.Fatalf("copied bytes counter = %d", h.CopiedBytes.Value)
	}
}

func TestInterruptSerializes(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 4)
	d1 := h.Interrupt(0)
	d2 := h.Interrupt(0)
	per := interruptCost + softIRQ
	if d1 != sim.Time(per) {
		t.Fatalf("first interrupt done at %v, want %v", d1, per)
	}
	if d2 != sim.Time(2*per) {
		t.Fatalf("second interrupt done at %v, want %v (serialized)", d2, 2*per)
	}
	if h.Interrupts.Value != 2 {
		t.Fatalf("interrupt counter = %d", h.Interrupts.Value)
	}
}

func TestHostMinimumOneCore(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 0)
	if h.cpu.N() != 1 {
		t.Fatalf("cores = %d, want clamped to 1", h.cpu.N())
	}
}

func TestWakeupIncludesContextSwitch(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	if w := h.Wakeup(); w != wakeupLatency+contextSwitch {
		t.Fatalf("wakeup = %v", w)
	}
	if h.CtxSwitches.Value != 1 {
		t.Fatal("context switch not counted")
	}
}

func TestPinCostsMoreThanSyscall(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	var pinT, sysT sim.Duration
	e.Spawn("p", func(p *sim.Proc) {
		s := p.Now()
		h.Pin(p)
		pinT = p.Now().Sub(s)
		s = p.Now()
		h.Syscall(p)
		sysT = p.Now().Sub(s)
	})
	e.Run()
	if pinT <= sysT {
		t.Fatalf("pin %v should exceed plain syscall %v", pinT, sysT)
	}
}

func TestSyscallDChargesExtra(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	var elapsed sim.Duration
	e.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		h.SyscallD(p, 5*sim.Microsecond)
		elapsed = p.Now().Sub(start)
	})
	e.Run()
	if elapsed != syscallCost+5*sim.Microsecond {
		t.Fatalf("SyscallD charged %v", elapsed)
	}
}

func TestChargeIRQExtendsReservation(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	d1 := h.ChargeIRQ(10 * sim.Microsecond)
	d2 := h.ChargeIRQ(10 * sim.Microsecond)
	if d2 != d1.Add(10*sim.Microsecond) {
		t.Fatalf("IRQ charges not serialized: %v then %v", d1, d2)
	}
}

func TestMMIOCharges(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		h.MMIO(p)
		end = p.Now()
	})
	e.Run()
	if end != sim.Time(mmioWrite) {
		t.Fatalf("MMIO charged %v", end)
	}
}

func TestComputeChargesAtFlopsRate(t *testing.T) {
	e := sim.NewEngine()
	h := NewHost(e, "h", 1)
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		h.Compute(p, 350_000_000) // exactly one second of FLOPs
		end = p.Now()
	})
	e.Run()
	if end != sim.Time(sim.Second) {
		t.Fatalf("350 MFLOP at 350 MFLOP/s took %v, want 1 s", end)
	}
	// Zero and negative work cost nothing.
	e2 := sim.NewEngine()
	h2 := NewHost(e2, "h", 1)
	e2.Spawn("p", func(p *sim.Proc) {
		h2.Compute(p, 0)
		h2.Compute(p, -5)
		if p.Now() != 0 {
			t.Error("zero/negative compute charged time")
		}
	})
	e2.Run()
}

package sim

import (
	"fmt"
	"testing"
)

// Two procs on one core serialize: the second finishes after the sum.
func TestCPUOneCoreSerializes(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "h", 1)
	var end1, end2 Time
	e.Spawn("a", func(p *Proc) {
		cpu.Compute(p, 100)
		end1 = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		cpu.Compute(p, 100)
		end2 = p.Now()
	})
	e.Run()
	if end1 != 100 || end2 != 200 {
		t.Fatalf("ends = %v, %v; want 100, 200", end1, end2)
	}
	if cpu.BusyTime(0) != 200 || cpu.Runs(0) != 2 {
		t.Fatalf("busy=%v runs=%v; want 200, 2", cpu.BusyTime(0), cpu.Runs(0))
	}
}

// Two procs on two cores overlap: both finish at d.
func TestCPUTwoCoresOverlap(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "h", 2)
	var ends []Time
	for i := 0; i < 2; i++ {
		e.Spawn("w", func(p *Proc) {
			cpu.Compute(p, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	for _, end := range ends {
		if end != 100 {
			t.Fatalf("ends = %v; want both 100", ends)
		}
	}
	if cpu.BusyTime(0) != 100 || cpu.BusyTime(1) != 100 {
		t.Fatalf("busy = %v, %v; want 100 each", cpu.BusyTime(0), cpu.BusyTime(1))
	}
}

// ComputeOn pins: two procs pinned to the same core of a 4-core CPU
// serialize even though other cores are idle.
func TestCPUPinnedSerializes(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "h", 4)
	var end2 Time
	e.Spawn("a", func(p *Proc) { cpu.ComputeOn(p, 2, 100) })
	e.Spawn("b", func(p *Proc) {
		cpu.ComputeOn(p, 6, 100) // 6 % 4 == core 2
		end2 = p.Now()
	})
	e.Run()
	if end2 != 200 {
		t.Fatalf("pinned second end = %v, want 200", end2)
	}
	if cpu.BusyTime(2) != 200 {
		t.Fatalf("core2 busy = %v, want 200", cpu.BusyTime(2))
	}
}

// Migratable Compute picks the least-loaded core deterministically:
// 4 concurrent procs on 2 cores land 2-and-2.
func TestCPULeastLoadedSpread(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "h", 2)
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) { cpu.Compute(p, 50) })
	}
	e.Run()
	if cpu.BusyTime(0) != 100 || cpu.BusyTime(1) != 100 {
		t.Fatalf("busy = %v, %v; want 100 each", cpu.BusyTime(0), cpu.BusyTime(1))
	}
	if e.Now() != 100 {
		t.Fatalf("finished at %v, want 100", e.Now())
	}
}

// The zero-cost-off property: an uncontended Compute produces a
// byte-identical schedule to a plain Sleep. We compare full event traces
// of two mirrored runs.
func TestCPUUncontendedIdenticalToSleep(t *testing.T) {
	trace := func(useCPU bool) string {
		e := NewEngine()
		var cpu *CPU
		if useCPU {
			cpu = NewCPU(e, "h", 1)
		}
		charge := func(p *Proc, d Duration) {
			if useCPU {
				cpu.Compute(p, d)
			} else {
				p.Sleep(d)
			}
		}
		out := ""
		fifo := NewFIFO[int](e, "q", 0)
		e.Spawn("prod", func(p *Proc) {
			for i := 0; i < 5; i++ {
				charge(p, 13)
				fifo.Put(p, i)
				out += fmt.Sprintf("put %d @%d\n", i, p.Now())
				p.Sleep(7)
			}
			fifo.Close()
		})
		e.Spawn("cons", func(p *Proc) {
			// The consumer only computes while the producer sleeps, so
			// the single core is never contended.
			for {
				v, ok := fifo.Get(p)
				if !ok {
					return
				}
				charge(p, 5)
				out += fmt.Sprintf("got %d @%d\n", v, p.Now())
			}
		})
		e.Run()
		return out + fmt.Sprintf("end @%d wakeups=%d\n", e.Now(), e.Wakeups())
	}
	withCPU, withSleep := trace(true), trace(false)
	if withCPU != withSleep {
		t.Fatalf("uncontended CPU schedule differs from plain Sleep:\ncpu:\n%s\nsleep:\n%s", withCPU, withSleep)
	}
}

// Run-queue order is FIFO: three procs contending one core finish in
// arrival order.
func TestCPURunQueueFIFO(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "h", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			cpu.Compute(p, 10)
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
}

// Used flips only when compute is actually charged.
func TestCPUUsedFlag(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, "h", 2)
	if cpu.Used() {
		t.Fatal("fresh CPU reports Used")
	}
	e.Spawn("w", func(p *Proc) {
		cpu.ComputeOn(p, 0, 0) // zero-duration charge is a no-op
	})
	e.Run()
	if cpu.Used() {
		t.Fatal("zero-duration charge should not mark the CPU used")
	}
	e.Spawn("w", func(p *Proc) { cpu.Compute(p, 1) })
	e.Run()
	if !cpu.Used() {
		t.Fatal("CPU not marked used after a real charge")
	}
	if cpu.Utilization(0) == 0 {
		t.Fatal("core 0 utilization should be nonzero after charge")
	}
}

// Package kernel models the host operating system costs that dominate the
// kernel-based protocol path the paper compares against: system calls,
// user/kernel memory copies, hardware interrupts (with coalescing, as in
// the Acenic driver), context switches, and scheduler wakeup latency.
//
// The costs are one calibration, a Linux 2.4.18 / Pentium III 700 MHz
// class machine matching the paper's testbed.
package kernel

import (
	"repro/internal/sim"
)

// The PIII-700 / Linux 2.4 host cost model: per-operation virtual
// durations except the two rates. The 2.4.18 baseline did
// copy-and-checksum, so the software checksum is folded into copies.
const (
	// syscallCost is the user→kernel→user crossing cost of a trivial
	// system call (trap, register save/restore, dispatch).
	syscallCost = 700 * sim.Nanosecond
	// contextSwitch is a full process context switch (used when a
	// blocked process is rescheduled onto the CPU).
	contextSwitch = 4 * sim.Microsecond
	// wakeupLatency is the scheduler latency between an event making a
	// process runnable and the process actually running, beyond the
	// context switch itself (run-queue placement, priority checks).
	wakeupLatency = 6 * sim.Microsecond
	// interruptCost is the cost of taking one hardware interrupt (vector
	// dispatch + handler prologue + IRQ ack), charged to the host CPU.
	interruptCost = 9 * sim.Microsecond
	// softIRQ is the protocol-processing trampoline cost per batch of
	// received frames (bottom half / softirq scheduling).
	softIRQ = 2 * sim.Microsecond
	// copyBandwidth is user↔kernel memory copy throughput in bytes/sec.
	// PC133-era hardware copies at a few hundred MB/s.
	copyBandwidth int64 = 350 << 20
	// CopySetup is the fixed cost of starting a copy (cache warmup,
	// call overhead).
	CopySetup = 200 * sim.Nanosecond
	// pinPages is the cost of the EMP descriptor-post system call that
	// translates and pins user pages (one syscall + page-table walk).
	pinPages = 2 * sim.Microsecond
	// mmioWrite is one uncached PCI write (doorbell/mailbox poke).
	mmioWrite = 400 * sim.Nanosecond
	// flopsRate is the sustained floating-point rate in FLOP/s used by
	// compute-bound application phases (PIII-700 DGEMM class).
	flopsRate int64 = 350_000_000
)

// Host models one machine: a CPU cost-charging facility plus interrupt
// delivery. The paper's hosts are quad-processor machines; NewHost's
// cores sets how many independent CPU contexts exist, backed by a
// sim.CPU whose per-core run queues serialize compute charged through
// ChargeComputeOn/CPU(). The fixed-cost charge methods (Syscall, Copy,
// MMIO, ...) model kernel-path latencies and deliberately bypass the run
// queues — they stay schedule-identical regardless of core count, so
// workloads that never opt into core-scheduled compute reproduce
// single-threaded-era runs byte for byte.
type Host struct {
	Eng  *sim.Engine
	Name string

	cpu *sim.CPU
	// intr serializes interrupt handling (one interrupt at a time per
	// host; IRQs are routed to CPU0 on the era's kernels).
	intrBusy *sim.Resource

	// Counters, published by the cluster under layer "kernel".
	Syscalls    sim.Counter `metric:"syscalls"`
	Interrupts  sim.Counter `metric:"interrupts"`
	CopiedBytes sim.Counter `metric:"copied_bytes"`
	CtxSwitches sim.Counter `metric:"ctx_switches"`
}

// NewHost returns a host with the given number of cores.
func NewHost(e *sim.Engine, name string, cores int) *Host {
	if cores < 1 {
		cores = 1
	}
	h := &Host{Eng: e, Name: name}
	h.cpu = sim.NewCPU(e, name+".cpu", cores)
	h.intrBusy = sim.NewResource(e)
	return h
}

// CPU returns the host's core scheduler, for callers that pin work or
// charge core-scheduled compute directly.
func (h *Host) CPU() *sim.CPU { return h.cpu }

// ChargeComputeOn charges p with d of core-scheduled compute pinned to
// a core (modulo the core count): concurrent charges on one core serialize.
func (h *Host) ChargeComputeOn(p *sim.Proc, core int, d sim.Duration) {
	h.cpu.ComputeOn(p, core, d)
}

// Syscall charges p with one trivial system call.
func (h *Host) Syscall(p *sim.Proc) {
	h.Syscalls.Inc()
	p.Sleep(syscallCost)
}

// SyscallD charges p with a system call plus extra in-kernel work.
func (h *Host) SyscallD(p *sim.Proc, extra sim.Duration) {
	h.Syscalls.Inc()
	p.Sleep(syscallCost + extra)
}

// CopyTime reports the duration of copying n bytes between user and
// kernel space (or between two user buffers).
func (h *Host) CopyTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return CopySetup + sim.BytesToDuration(n, copyBandwidth*8)
}

// Copy charges p with copying n bytes.
func (h *Host) Copy(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	h.CopiedBytes.Add(int64(n))
	p.Sleep(h.CopyTime(n))
}

// Wakeup returns the delay between an in-kernel event making a process
// runnable and that process running user code again.
func (h *Host) Wakeup() sim.Duration {
	h.CtxSwitches.Inc()
	return wakeupLatency + contextSwitch
}

// Interrupt charges interrupt-handling time on the host's IRQ context,
// starting now, and returns the instant the handler (plus softirq body
// provided by the caller as extra) completes. Event-context safe.
func (h *Host) Interrupt(extra sim.Duration) sim.Time {
	h.Interrupts.Inc()
	return h.intrBusy.Reserve(interruptCost + softIRQ + extra)
}

// ChargeIRQ books extra time on the IRQ context (protocol processing in
// softirq that follows an interrupt) and returns completion time.
func (h *Host) ChargeIRQ(extra sim.Duration) sim.Time {
	return h.intrBusy.Reserve(extra)
}

// Pin charges p with the pin-and-translate system call used by EMP
// descriptor posts on a translation-cache miss.
func (h *Host) Pin(p *sim.Proc) {
	h.Syscalls.Inc()
	p.Sleep(syscallCost + pinPages)
}

// MMIO charges p with one doorbell write to the NIC.
func (h *Host) MMIO(p *sim.Proc) {
	p.Sleep(mmioWrite)
}

// Compute charges p with a floating-point workload of the given
// operation count at the host's sustained rate, on the least-loaded
// core: concurrent compute phases on one host serialize once all cores
// are busy.
func (h *Host) Compute(p *sim.Proc, flops int64) {
	if flops <= 0 {
		return
	}
	h.cpu.Compute(p, sim.Duration(flops*int64(sim.Second)/flopsRate))
}

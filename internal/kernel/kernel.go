// Package kernel models the host operating system costs that dominate the
// kernel-based protocol path the paper compares against: system calls,
// user/kernel memory copies, hardware interrupts (with coalescing, as in
// the Acenic driver), context switches, and scheduler wakeup latency.
//
// The numbers default to a Linux 2.4.18 / Pentium III 700 MHz class
// machine, matching the paper's testbed, and are all adjustable so the
// benchmark harness can run sensitivity sweeps.
package kernel

import (
	"repro/internal/sim"
)

// Costs holds the host cost model. All fields are per-operation virtual
// durations except the bandwidth fields.
type Costs struct {
	// Syscall is the user→kernel→user crossing cost of a trivial system
	// call (trap, register save/restore, dispatch).
	Syscall sim.Duration
	// ContextSwitch is a full process context switch (used when a
	// blocked process is rescheduled onto the CPU).
	ContextSwitch sim.Duration
	// WakeupLatency is the scheduler latency between an event making a
	// process runnable and the process actually running, beyond the
	// context switch itself (run-queue placement, priority checks).
	WakeupLatency sim.Duration
	// Interrupt is the cost of taking one hardware interrupt (vector
	// dispatch + handler prologue + IRQ ack), charged to the host CPU.
	Interrupt sim.Duration
	// SoftIRQ is the protocol-processing trampoline cost per batch of
	// received frames (bottom half / softirq scheduling).
	SoftIRQ sim.Duration
	// CopyBandwidth is user↔kernel memory copy throughput in bytes/sec.
	// PC133-era hardware copies at a few hundred MB/s.
	CopyBandwidth int64
	// CopySetup is the fixed cost of starting a copy (cache warmup,
	// call overhead).
	CopySetup sim.Duration
	// ChecksumBandwidth is the software Internet-checksum rate. The
	// Acenic hardware could offload this; the 2.4.18 baseline did
	// copy-and-checksum, so the cost is folded into copies when
	// ChecksumBandwidth is zero.
	ChecksumBandwidth int64
	// PinPages is the cost of the EMP descriptor-post system call that
	// translates and pins user pages (one syscall + page-table walk).
	PinPages sim.Duration
	// MMIOWrite is one uncached PCI write (doorbell/mailbox poke).
	MMIOWrite sim.Duration
	// FlopsRate is the sustained floating-point rate in FLOP/s used by
	// compute-bound application phases (PIII-700 DGEMM class).
	FlopsRate int64
}

// DefaultCosts returns the PIII-700 / Linux 2.4 calibration.
func DefaultCosts() Costs {
	return Costs{
		Syscall:           700 * sim.Nanosecond,
		ContextSwitch:     4 * sim.Microsecond,
		WakeupLatency:     6 * sim.Microsecond,
		Interrupt:         9 * sim.Microsecond,
		SoftIRQ:           2 * sim.Microsecond,
		CopyBandwidth:     350 << 20, // ~350 MB/s
		CopySetup:         200 * sim.Nanosecond,
		ChecksumBandwidth: 0, // folded into copy (copy-and-checksum)
		PinPages:          2 * sim.Microsecond,
		MMIOWrite:         400 * sim.Nanosecond,
		FlopsRate:         350_000_000,
	}
}

// Host models one machine: a CPU cost-charging facility plus interrupt
// delivery. The paper's hosts are quad-processor machines; Cores sets how
// many independent CPU contexts exist, backed by a sim.CPU whose per-core
// run queues serialize compute charged through ChargeComputeOn/CPU(). The
// fixed-cost charge methods (Syscall, Copy, MMIO, ...) model kernel-path
// latencies and deliberately bypass the run queues — they stay
// schedule-identical regardless of core count, so workloads that never
// opt into core-scheduled compute reproduce single-threaded-era runs
// byte for byte.
type Host struct {
	Eng   *sim.Engine
	Costs Costs
	Name  string

	cpu *sim.CPU
	// intr serializes interrupt handling (one interrupt at a time per
	// host; IRQs are routed to CPU0 on the era's kernels).
	intrBusy *sim.Resource

	// Counters for reports.
	Syscalls    sim.Counter
	Interrupts  sim.Counter
	CopiedBytes sim.Counter
	CtxSwitches sim.Counter
}

// NewHost returns a host with the given number of cores.
func NewHost(e *sim.Engine, name string, cores int, costs Costs) *Host {
	if cores < 1 {
		cores = 1
	}
	h := &Host{Eng: e, Costs: costs, Name: name}
	h.cpu = sim.NewCPU(e, name+".cpu", cores)
	h.intrBusy = sim.NewResource(e, name+".irq")
	return h
}

// Cores reports the number of CPU contexts.
func (h *Host) Cores() int { return h.cpu.N() }

// CPU returns the host's core scheduler, for callers that pin work or
// charge core-scheduled compute directly.
func (h *Host) CPU() *sim.CPU { return h.cpu }

// ChargeComputeOn charges p with d of core-scheduled compute pinned to
// a core (modulo Cores()): concurrent charges on one core serialize.
func (h *Host) ChargeComputeOn(p *sim.Proc, core int, d sim.Duration) {
	h.cpu.ComputeOn(p, core, d)
}

// Syscall charges p with one trivial system call.
func (h *Host) Syscall(p *sim.Proc) {
	h.Syscalls.Inc()
	p.Sleep(h.Costs.Syscall)
}

// SyscallD charges p with a system call plus extra in-kernel work.
func (h *Host) SyscallD(p *sim.Proc, extra sim.Duration) {
	h.Syscalls.Inc()
	p.Sleep(h.Costs.Syscall + extra)
}

// CopyTime reports the duration of copying n bytes between user and
// kernel space (or between two user buffers).
func (h *Host) CopyTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return h.Costs.CopySetup + sim.BytesToDuration(n, h.Costs.CopyBandwidth*8)
}

// Copy charges p with copying n bytes.
func (h *Host) Copy(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	h.CopiedBytes.Add(int64(n))
	p.Sleep(h.CopyTime(n))
}

// ChecksumTime reports the duration of software-checksumming n bytes;
// zero if checksumming is folded into the copy.
func (h *Host) ChecksumTime(n int) sim.Duration {
	if h.Costs.ChecksumBandwidth <= 0 || n <= 0 {
		return 0
	}
	return sim.BytesToDuration(n, h.Costs.ChecksumBandwidth*8)
}

// Wakeup returns the delay between an in-kernel event making a process
// runnable and that process running user code again.
func (h *Host) Wakeup() sim.Duration {
	h.CtxSwitches.Inc()
	return h.Costs.WakeupLatency + h.Costs.ContextSwitch
}

// Interrupt charges interrupt-handling time on the host's IRQ context,
// starting now, and returns the instant the handler (plus softirq body
// provided by the caller as extra) completes. Event-context safe.
func (h *Host) Interrupt(extra sim.Duration) sim.Time {
	h.Interrupts.Inc()
	return h.intrBusy.Reserve(h.Costs.Interrupt + h.Costs.SoftIRQ + extra)
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
	p.Sleep(h.Costs.Syscall + h.Costs.PinPages)
}

// MMIO charges p with one doorbell write to the NIC.
func (h *Host) MMIO(p *sim.Proc) {
	p.Sleep(h.Costs.MMIOWrite)
}

// Compute charges p with a floating-point workload of the given
// operation count at the host's sustained rate, on the least-loaded
// core: concurrent compute phases on one host serialize once all cores
// are busy.
func (h *Host) Compute(p *sim.Proc, flops int64) {
	if flops <= 0 || h.Costs.FlopsRate <= 0 {
		return
	}
	h.cpu.Compute(p, sim.Duration(flops*int64(sim.Second)/h.Costs.FlopsRate))
}

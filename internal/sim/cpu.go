package sim

// CPU models the compute contexts of an SMP host: N cores, each a
// serially-reusable run slot with a FIFO run queue. Processes charge
// compute time to a core with Compute (migratable: the least-loaded core
// is picked deterministically) or ComputeOn (pinned). Two processes
// charging the same core serialize; processes on different cores overlap.
//
// The scheduling is intentionally schedule-transparent when uncontended:
// a Compute on an idle core is byte-identical to a plain Sleep of the
// same duration — acquiring a free run slot does not yield, and releasing
// a slot nobody waits for schedules no events. A 1-core CPU that never
// sees two concurrent Compute calls therefore reproduces today's
// single-threaded schedules exactly; contention is the only thing that
// changes event order, and it changes it deterministically (FIFO run
// queues, lowest-index tiebreak on core choice).
type CPU struct {
	eng   *Engine
	label string
	cores []cpuCore
	used  bool
}

type cpuCore struct {
	slot *Semaphore // 1-cap run slot; its WaitQueue is the run queue
	// load counts processes currently running or queued on this core;
	// Compute picks the core with the lowest load (lowest index wins
	// ties) so migration is deterministic.
	load int
	busy Duration
	runs int64
}

// NewCPU returns an N-core CPU (N is clamped to at least 1).
func NewCPU(e *Engine, label string, n int) *CPU {
	if n < 1 {
		n = 1
	}
	c := &CPU{eng: e, label: label}
	c.cores = make([]cpuCore, n)
	for i := range c.cores {
		c.cores[i].slot = NewSemaphore(e, label+".core", 1)
	}
	return c
}

// N reports the number of cores.
func (c *CPU) N() int { return len(c.cores) }

// Used reports whether any compute time was ever charged. Telemetry
// sources use this to stay silent on hosts that never exercised the
// core model.
func (c *CPU) Used() bool { return c.used }

// Compute charges p with d of compute on the deterministically
// least-loaded core (lowest current load, lowest index on ties),
// blocking in that core's run queue while the core is busy.
func (c *CPU) Compute(p *Proc, d Duration) {
	best := 0
	for i := 1; i < len(c.cores); i++ {
		if c.cores[i].load < c.cores[best].load {
			best = i
		}
	}
	c.ComputeOn(p, best, d)
}

// ComputeOn charges p with d of compute pinned to core (taken modulo N),
// blocking in that core's run queue while the core is busy.
func (c *CPU) ComputeOn(p *Proc, core int, d Duration) {
	if d <= 0 {
		return
	}
	c.used = true
	cc := &c.cores[((core%len(c.cores))+len(c.cores))%len(c.cores)]
	cc.load++
	cc.slot.Acquire(p)
	cc.busy += d
	cc.runs++
	p.Sleep(d)
	cc.slot.Release()
	cc.load--
}

// BusyTime reports the accumulated compute time charged to core i.
func (c *CPU) BusyTime(i int) Duration {
	if i < 0 || i >= len(c.cores) {
		return 0
	}
	return c.cores[i].busy
}

// Runs reports how many Compute charges core i has served.
func (c *CPU) Runs(i int) int64 {
	if i < 0 || i >= len(c.cores) {
		return 0
	}
	return c.cores[i].runs
}

// Utilization reports core i's busy time as a fraction of elapsed time.
func (c *CPU) Utilization(i int) float64 {
	if i < 0 || i >= len(c.cores) || c.eng.Now() == 0 {
		return 0
	}
	return float64(c.cores[i].busy) / float64(c.eng.Now())
}

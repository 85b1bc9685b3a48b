// Package nic models an Alteon Tigon2-class programmable Gigabit Ethernet
// NIC: a general-purpose embedded processor pair (send and receive
// firmware run on separate CPUs), a DMA engine on a PCI-era bus, a MAC,
// and host mailboxes. The EMP firmware (package emp) runs on this
// hardware as event-driven activities that charge the costs reported
// here; the per-operation cost table below is what calibrates the
// reproduction's absolute numbers.
package nic

import (
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The Tigon2 per-operation cost table, calibrated so that raw EMP
// 4-byte one-way latency lands near the paper's 28 us and streaming
// peaks in the mid-800 Mbps range (see EXPERIMENTS.md).
const (
	// mailboxLatency is the delay between a host MMIO doorbell write
	// and the firmware observing the new descriptor.
	mailboxLatency = 1 * sim.Microsecond
	// TxPostHandle is send-CPU work to pick up one new transmit
	// descriptor (read mailbox, fetch descriptor via DMA, set up the
	// transmission record).
	TxPostHandle = 2 * sim.Microsecond
	// TxPerFrame is send-CPU work per outgoing frame (build header,
	// program DMA, hand to MAC, update the transmission record).
	TxPerFrame = 5 * sim.Microsecond
	// RxPostHandle is receive-CPU work to pick up one new receive
	// descriptor post.
	RxPostHandle = 1500 * sim.Nanosecond
	// rxPerFrame is receive-CPU work per incoming frame (classify,
	// reliability bookkeeping, program DMA) on one processor; see
	// Config.EffectiveRxPerFrame.
	rxPerFrame = 9500 * sim.Nanosecond
	// TagMatchBase is the fixed cost of starting a tag-matching walk.
	TagMatchBase = 500 * sim.Nanosecond
	// TagMatchPerDesc is the cost of examining one posted descriptor
	// during the walk. The paper measures this at about 550 ns.
	TagMatchPerDesc = 550 * sim.Nanosecond
	// dmaSetup is the fixed cost of programming one DMA transfer.
	dmaSetup = 1 * sim.Microsecond
	// dmaBandwidth is the host-NIC DMA rate in bytes/sec (64-bit/66 MHz
	// PCI peaks at 528 MB/s).
	dmaBandwidth int64 = 528 << 20
	// HostNotify is the cost of the NIC writing a completion word into
	// host memory.
	HostNotify = 500 * sim.Nanosecond
	// HostPollGap is the mean delay before a spinning host thread
	// observes a completion word (cache transfer + poll loop spacing).
	HostPollGap = 500 * sim.Nanosecond
	// macQueueFrames bounds how many frames the firmware keeps queued
	// ahead of the wire before it stalls (MAC FIFO depth).
	macQueueFrames = 8
	// doorbellRetry is how long the host driver's doorbell watchdog
	// waits before re-ringing a mailbox write the NIC never observed
	// (fault injection only: healthy rings are never dropped).
	doorbellRetry = 100 * sim.Microsecond
)

// Config holds the NIC properties the experiments vary: the descriptor
// lookup model, the frame size and the receive processor count.
type Config struct {
	// HashedMatch selects the hashed descriptor-lookup cost model: the
	// firmware indexes its posted descriptors by (src, tag) and each
	// arrival pays TagMatchBase plus TagMatchPerDesc per bucket entry
	// examined, instead of the paper's linear walk: the win comes from
	// probing an expected O(1) chain, not from a cheaper compare. Off by default
	// — the linear walk is what the paper measures and what the figure
	// reproduction calibrates against.
	HashedMatch bool
	// MTU is the Ethernet payload size this NIC frames for; Alteon
	// hardware supports 9000-byte jumbo frames (ethernet.JumboMTU).
	MTU int
	// RxCPUs models how many of the Tigon2's processors work on
	// receive-frame processing. The CLUSTER'02 system dedicates one;
	// the companion IPDPS'02 study ("Can User Level Protocols Take
	// Advantage of Multi-CPU NICs?") parallelizes it — modeled here as
	// the per-frame processing cost divided across the CPUs.
	RxCPUs int
}

// DefaultConfig returns the paper's Tigon2: standard frames, one
// receive processor and the linear tag-match walk.
func DefaultConfig() Config {
	return Config{
		MTU:    ethernet.MTU,
		RxCPUs: 1,
	}
}

// HashedConfig returns the default table with the hashed
// descriptor-lookup cost model enabled.
func HashedConfig() Config {
	c := DefaultConfig()
	c.HashedMatch = true
	return c
}

// EffectiveRxPerFrame is the receive-CPU charge per data frame given the
// configured processor count.
func (c Config) EffectiveRxPerFrame() sim.Duration {
	k := c.RxCPUs
	if k < 1 {
		k = 1
	}
	return rxPerFrame / sim.Duration(k)
}

// NIC is one programmable NIC instance. Its methods report what an
// operation costs the firmware, which charges that time to the CPU doing
// the work (and serializes its CPUs on the one DMA engine). Incoming wire
// frames go to the sink the firmware installs; outgoing frames go out
// through Transmit.
type NIC struct {
	Eng  *sim.Engine
	Cfg  Config
	Name string

	port *ethernet.Port
	sink func(*ethernet.Frame)
	dead bool

	// NIC-domain fault injection: the plan's NIC clauses keyed by this
	// NIC's cluster node index. Nil means healthy.
	fplan *faults.Plan
	fnode int

	// Counters, published by the cluster under layer "nic". The four
	// data-path counters TxFrames, DMABytes, TagWalked and TagLookups
	// stay untagged: the repository benchmark adds them to its counter
	// map by hand, and a registered copy would count them twice.
	TxFrames  sim.Counter
	RxFrames  sim.Counter `metric:"rx_frames"`
	DMABytes  sim.Counter
	TagWalked sim.Counter
	// TagLookups counts descriptor lookups (one per first-seen message);
	// TagWalked / TagLookups is the mean lookup length in the active cost
	// model — entries probed in hashed mode, descriptors walked in
	// linear mode. The connscale bench gate asserts on this ratio.
	TagLookups sim.Counter
	FCSErrors  sim.Counter `metric:"fcs_errors"`
	// Fault-injection counters (all zero on a healthy NIC).
	DoorbellsDropped sim.Counter `metric:"doorbells_dropped"`
	DMAStalls        sim.Counter `metric:"dma_stalls"`
	DescFlips        sim.Counter `metric:"desc_flips"`
	UQLost           sim.Counter `metric:"uq_lost"`
	WedgeStalls      sim.Counter `metric:"wedge_stalls"`
}

// New returns a NIC not yet attached to a switch.
func New(e *sim.Engine, name string, cfg Config) *NIC {
	return &NIC{
		Eng:  e,
		Cfg:  cfg,
		Name: name,
	}
}

// Attach connects the NIC to a switch and returns its station address.
func (n *NIC) Attach(sw *ethernet.Switch) ethernet.Addr {
	n.port = sw.Attach(n)
	return n.port.Addr()
}

// AttachPort takes over an existing switch port, rebinding its station
// to this NIC — the crash–restart path: a reborn host's fresh NIC
// inherits the dead incarnation's port so the node keeps its fabric
// address.
func (n *NIC) AttachPort(port *ethernet.Port) ethernet.Addr {
	port.Rebind(n)
	n.port = port
	return n.port.Addr()
}

// Port reports the switch port the NIC is attached to (nil before
// Attach), so a restart can hand the port to the next incarnation.
func (n *NIC) Port() *ethernet.Port { return n.port }

// Addr reports the NIC's station address. It panics before Attach.
func (n *NIC) Addr() ethernet.Addr { return n.port.Addr() }

// Deliver implements ethernet.station: frames from the wire go to the
// sink for the receive firmware to consume.
func (n *NIC) Deliver(f *ethernet.Frame) {
	if n.dead {
		return
	}
	if !f.FCSOK() {
		// The MAC's frame-check-sequence verification catches bits
		// flipped on the wire; the frame never reaches the firmware.
		// The sender's reliability layer retransmits.
		n.FCSErrors.Inc()
		n.Eng.Tracef(n.Name, "rx frame dropped: FCS error")
		return
	}
	n.RxFrames.Inc()
	n.sink(f)
}

// SetSink routes delivered frames to fn; the firmware installs one
// feeding its own work queue before the NIC receives anything. fn runs
// in event context and must not block.
func (n *NIC) SetSink(fn func(*ethernet.Frame)) { n.sink = fn }

// Transmit hands one frame to the MAC. It returns immediately; the MAC
// serializes at line rate. The firmware first waits out TxRoomWait to
// respect the MAC FIFO bound.
func (n *NIC) Transmit(f *ethernet.Frame) {
	if n.dead {
		return
	}
	n.TxFrames.Inc()
	n.port.Transmit(f)
}

// TxRoomWait reports how long the firmware must stall before the MAC
// transmit backlog is back within the configured FIFO depth, zero when
// there is room now: firmware stalling on a full MAC queue.
func (n *NIC) TxRoomWait() sim.Duration {
	mtu := n.Cfg.MTU
	if mtu <= 0 {
		mtu = ethernet.MTU
	}
	frameTime := (&ethernet.Frame{PayloadLen: mtu}).WireTime()
	maxBacklog := sim.Duration(macQueueFrames) * frameTime
	return max(n.port.TxBacklog()-maxBacklog, 0)
}

// DMA counts one transfer of bytes in either direction. It returns the
// fault plan's stall of the DMA engine ahead of the transfer (zero on a
// healthy NIC) and how long the transfer then holds the engine.
// Transfers from the send and receive CPUs contend for the single
// engine: the firmware charges the stall, then holds the engine, one
// transfer at a time, for the hold time.
func (n *NIC) DMA(bytes int) (stall, hold sim.Duration) {
	if stall = n.faultDMAStall(); stall > 0 {
		n.DMAStalls.Inc()
		n.Eng.Tracef(n.Name, "dma engine stalled %v (fault)", stall)
	}
	bytes = max(bytes, 0)
	n.DMABytes.Add(int64(bytes))
	return stall, dmaSetup + sim.BytesToDuration(bytes, dmaBandwidth*8)
}

// TagMatch counts one descriptor lookup that examined walked entries and
// returns its receive-CPU cost: TagMatchBase plus TagMatchPerDesc per
// entry (the paper's 550 ns/descriptor effect). The entries are posted
// descriptors walked in linear mode and bucket entries probed in hashed
// mode (Config.HashedMatch), so one cost function serves both models.
func (n *NIC) TagMatch(walked int) sim.Duration {
	walked = max(walked, 0)
	n.TagLookups.Inc()
	n.TagWalked.Add(int64(walked))
	return TagMatchBase + sim.Duration(walked)*TagMatchPerDesc
}

// Kill models the NIC dying with its host: it stops receiving and
// transmitting (frames silently vanish, as on a powered-off station).
// Peers discover the death through their own reliability timeouts.
func (n *NIC) Kill() { n.dead = true }

// --- Fault injection -------------------------------------------------------

// SetFaults installs the NIC-domain clauses of a fault plan, keyed by
// this NIC's cluster node index. A nil plan (or one without NIC
// clauses) leaves the NIC healthy; with no clauses matching, no PRNG
// draws happen, so timings stay byte-identical.
func (n *NIC) SetFaults(pl *faults.Plan, node int) {
	if pl == nil || !pl.HasNIC() {
		n.fplan = nil
		return
	}
	n.fplan = pl
	n.fnode = node
}

// Ring models the host writing a NIC mailbox ("ringing the doorbell"):
// fn(arg) observes the write mailboxLatency later. A caller binds fn
// once and passes the descriptor as arg, so a healthy ring allocates
// nothing. Under a doorbell-drop fault the write is lost and the host
// driver's watchdog re-rings it after doorbellRetry — the descriptor is
// delayed, never lost, so the resource audit stays clean while the
// latency is very visible.
func (n *NIC) Ring(fn func(any), arg any) {
	if n.fplan != nil && !n.dead && n.fplan.NICDropDoorbell(n.Eng.Rand(), sim.Duration(n.Eng.Now()), n.fnode) {
		n.DoorbellsDropped.Inc()
		n.Eng.Tracef(n.Name, "doorbell dropped (fault), re-ring in %v", doorbellRetry)
		n.Eng.After(doorbellRetry, func() { n.Ring(fn, arg) })
		return
	}
	n.Eng.AtArg(n.Eng.Now().Add(mailboxLatency), fn, arg)
}

// FaultFlipDesc reports whether the next transmit descriptor is
// corrupted by the fault plan (the frame goes out with a bad FCS).
func (n *NIC) FaultFlipDesc() bool {
	if n.fplan == nil {
		return false
	}
	if n.fplan.NICFlipDesc(n.Eng.Rand(), sim.Duration(n.Eng.Now()), n.fnode) {
		n.DescFlips.Inc()
		return true
	}
	return false
}

// FaultLoseUnexpected reports whether one completed unexpected-queue
// delivery is lost between firmware and host.
func (n *NIC) FaultLoseUnexpected() bool {
	if n.fplan == nil {
		return false
	}
	if n.fplan.NICLoseUnexpected(n.Eng.Rand(), sim.Duration(n.Eng.Now()), n.fnode) {
		n.UQLost.Inc()
		return true
	}
	return false
}

// WedgeRemaining reports how much longer the fault plan wedges this
// NIC's firmware, zero on a healthy NIC. The firmware stalls that long
// and asks again, in case wedge windows abut.
func (n *NIC) WedgeRemaining() sim.Duration {
	if n.fplan == nil {
		return 0
	}
	remain := n.fplan.NICWedgeRemaining(sim.Duration(n.Eng.Now()), n.fnode)
	if remain > 0 {
		n.WedgeStalls.Inc()
		n.Eng.Tracef(n.Name, "firmware wedged %v (fault)", remain)
	}
	return remain
}

func (n *NIC) faultDMAStall() sim.Duration {
	if n.fplan == nil {
		return 0
	}
	return n.fplan.NICDMAStall(n.Eng.Rand(), sim.Duration(n.Eng.Now()), n.fnode)
}

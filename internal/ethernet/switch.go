package ethernet

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
)

// SwitchConfig holds the timing parameters of the switch and its links.
// Frame faults are not configured here: they come from a faults.Plan
// installed with Switch.SetFaults.
type SwitchConfig struct {
	// ForwardLatency is the store-and-forward processing delay between
	// full reception on an input port and the start of transmission on
	// the output port (lookup + crossbar).
	ForwardLatency sim.Duration
	// PropDelay is the one-way cable propagation delay per link.
	PropDelay sim.Duration
}

// DefaultSwitchConfig reflects a Packet Engines-class Gigabit switch:
// a few microseconds of store-and-forward latency and a short cable.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{
		ForwardLatency: 3 * sim.Microsecond,
		PropDelay:      500 * sim.Nanosecond,
	}
}

// FaultStats aggregates every fault-injection counter of the fabric.
type FaultStats struct {
	Drops          int64 `metric:"fault_drops"`           // frames dropped by loss injection
	PartitionDrops int64 `metric:"fault_partition_drops"` // frames dropped by partition/link-down clauses
	Dups           int64 `metric:"fault_dups"`            // frames delivered twice
	Corruptions    int64 `metric:"fault_corruptions"`     // frames with flipped bits (dropped at FCS check)
	Reorders       int64 `metric:"fault_reorders"`        // frames delayed past their successors
}

// Total reports all injected fault events.
func (fs FaultStats) Total() int64 {
	return fs.Drops + fs.PartitionDrops + fs.Dups + fs.Corruptions + fs.Reorders
}

// Add accumulates another switch's counters, for totals across runs.
func (fs *FaultStats) Add(o FaultStats) {
	fs.Drops += o.Drops
	fs.PartitionDrops += o.PartitionDrops
	fs.Dups += o.Dups
	fs.Corruptions += o.Corruptions
	fs.Reorders += o.Reorders
}

// String summarizes the counters.
func (fs FaultStats) String() string {
	return fmt.Sprintf("drops=%d partition-drops=%d dups=%d corruptions=%d reorders=%d",
		fs.Drops, fs.PartitionDrops, fs.Dups, fs.Corruptions, fs.Reorders)
}

// Switch is a store-and-forward Ethernet switch, always a member of a
// Fabric. Each attached station gets a full-duplex port: the
// station→switch direction is serialized by the station's own
// transmitter (see Port.Transmit); the switch→station direction is
// serialized by a per-output-port resource, which produces output
// queueing when multiple senders converge on one receiver.
type Switch struct {
	eng      *sim.Engine
	cfg      SwitchConfig
	plan     *faults.Plan
	stats    FaultStats
	forwards int64

	// The switch carries a fabric-wide id and name and hands frames for
	// stations attached elsewhere to the fabric's router.
	fab  *Fabric
	id   int
	name string
	dead bool
	// routeDrops counts frames dropped because no live route to their
	// destination existed (a disconnected fabric, a dead leaf, or an
	// unknown station).
	routeDrops int64
}

// NewSwitch returns the only switch of a private one-switch fabric —
// the paper's testbed, with no trunks and nothing to route.
func NewSwitch(e *sim.Engine, cfg SwitchConfig) *Switch {
	return NewFabric(e, FabricConfig{}).AddSwitch("switch", cfg)
}

// SetFaults installs the fault plan evaluated once per frame entering
// the fabric at this switch; it is the only source of frame faults. The
// plan is normalized (rates clamped); nil removes any installed plan. A
// plan whose rates are all zero and whose windows never match draws no
// randomness and adds no delay.
func (s *Switch) SetFaults(pl *faults.Plan) { s.plan = pl.Normalized() }

// Port is one full-duplex switch port with its attached station.
type Port struct {
	sw      *Switch
	addr    Addr
	station Station
	// tx serializes the station's transmitter (station → switch).
	tx *sim.Resource
	// out serializes the switch's transmitter on this port
	// (switch → station).
	out *sim.Resource

	txFrames, rxFrames int64
	txBytes, rxBytes   int64
}

// Attach connects a station to a new port and returns the port. The
// station learns its address via the returned port's Addr method.
// Addresses come from the fabric-wide space, so stations on different
// switches never collide. st may be nil when the station is built after
// its port; it must then be bound with Rebind before any frame arrives.
func (s *Switch) Attach(st Station) *Port {
	addr := Addr(len(s.fab.stations))
	p := &Port{
		sw:      s,
		addr:    addr,
		station: st,
		tx:      sim.NewResource(s.eng, fmt.Sprintf("port%d.tx", addr)),
		out:     sim.NewResource(s.eng, fmt.Sprintf("port%d.out", addr)),
	}
	s.fab.stations = append(s.fab.stations, p)
	return p
}

// Addr reports the station address assigned to this port.
func (p *Port) Addr() Addr { return p.addr }

// Rebind swaps the station attached to this port, keeping the address,
// transmit resources and counters. This is the crash–restart hook: a
// reborn host's fresh NIC takes over the dead incarnation's switch
// port, so the node comes back at the same fabric address. Frames
// arriving during the downtime window were delivered to the dead
// station (which drops them) — the blackhole a power cycle leaves.
func (p *Port) Rebind(st Station) { p.station = st }

// Forwards reports frames successfully forwarded.
func (s *Switch) Forwards() int64 { return s.forwards }

// FaultStats reports the consolidated fault-injection counters.
func (s *Switch) FaultStats() FaultStats { return s.stats }

// ID reports the switch's fabric id (creation order).
func (s *Switch) ID() int { return s.id }

// Name reports the switch's fabric name ("switch" for NewSwitch;
// "leaf0", "spine1", ... on a spine-leaf fabric).
func (s *Switch) Name() string { return s.name }

// Dead reports whether a fault plan's SwitchCrash has killed this
// switch.
func (s *Switch) Dead() bool { return s.dead }

// RouteDrops reports frames this switch dropped for want of a live
// route to their destination.
func (s *Switch) RouteDrops() int64 { return s.routeDrops }

// Transmit sends a frame from this port's station into the fabric. The
// frame is serialized on the station's transmitter, propagates to the
// switch, is fully received (store-and-forward), and is then forwarded.
// Transmit returns immediately with the instant at which the station's
// transmitter becomes free (when the NIC can start the next frame).
//
// Transmit is safe to call from event context; it never blocks.
func (p *Port) Transmit(f *Frame) (txDone sim.Time) {
	if f.Src != p.addr {
		panic(fmt.Sprintf("ethernet: frame src %d transmitted on port %d", f.Src, p.addr))
	}
	wire := f.WireTime()
	txDone = p.tx.Reserve(wire)
	p.txFrames++
	p.txBytes += int64(f.PayloadLen)
	arrive := txDone.Add(p.sw.cfg.PropDelay)
	p.sw.eng.At(arrive, func() { p.sw.forward(f) })
	return txDone
}

// TxBacklog reports how far in the future this port's station transmitter
// is booked — the NIC uses it to model MAC queue depth.
func (p *Port) TxBacklog() sim.Duration {
	free := p.tx.FreeAt()
	now := p.sw.eng.Now()
	if free <= now {
		return 0
	}
	return free.Sub(now)
}

// forward runs when a frame has been fully received by the switch from
// one of its attached stations (fabric ingress). Frames arriving over a
// trunk enter through transit instead, so the fault plan's frame
// clauses are evaluated exactly once per frame, at the ingress switch.
func (s *Switch) forward(f *Frame) {
	if s.dead {
		return
	}
	act := s.plan.Eval(s.eng.Rand(), sim.Duration(s.eng.Now()), int(f.Src), int(f.Dst))
	if act.Drop {
		if act.Partition {
			s.stats.PartitionDrops++
			s.eng.Tracef("switch", "PARTITION-DROP %d->%d len=%d", f.Src, f.Dst, f.PayloadLen)
		} else {
			s.stats.Drops++
			s.eng.Tracef("switch", "DROP %d->%d len=%d", f.Src, f.Dst, f.PayloadLen)
		}
		return
	}
	out := f
	if act.Corrupt && !f.Corrupt {
		// Corrupt a copy: a retransmission of the same payload must
		// arrive clean.
		cf := *f
		cf.Corrupt = true
		out = &cf
		s.stats.Corruptions++
		s.eng.Tracef("switch", "CORRUPT %d->%d len=%d", f.Src, f.Dst, f.PayloadLen)
	}
	if act.Delay > 0 {
		s.stats.Reorders++
		s.eng.Tracef("switch", "REORDER %d->%d len=%d delay=%v", f.Src, f.Dst, f.PayloadLen, act.Delay)
	}
	if f.Dst == Broadcast {
		panic("ethernet: broadcast frames are not supported")
	}
	if act.Dup {
		s.stats.Dups++
	}
	s.egress(out, act.Delay, act.Dup)
}

// transit runs when a frame arrives over a trunk link: store-and-forward
// routing without re-evaluating the ingress fault plan.
func (s *Switch) transit(f *Frame) {
	if s.dead {
		return
	}
	s.egress(f, 0, false)
}

// egress moves a frame one hop closer to its destination: local delivery
// if the station is attached here, otherwise the ECMP-selected trunk
// toward the destination's switch. Frames with no live route, or to an
// unknown station, are dropped — the upper layers' reliability
// machinery (EMP retransmission, TCP RTO) carries them across the
// reroute window.
func (s *Switch) egress(f *Frame, extraDelay sim.Duration, dup bool) {
	p := s.fab.portOf(f.Dst)
	if p != nil && p.sw == s {
		s.deliverVia(p, f, extraDelay)
		if dup {
			s.deliverVia(p, f, 0)
		}
		return
	}
	var t *Trunk
	if p != nil {
		t = s.fab.nextHop(s, p.sw, f)
	}
	if t == nil {
		s.routeDrops++
		s.fab.routeDrops++
		s.eng.Tracef(s.name, "NO-ROUTE %d->%d len=%d", f.Src, f.Dst, f.PayloadLen)
		return
	}
	t.forward(s, f, extraDelay)
	if dup {
		t.forward(s, f, 0)
	}
}

// deliverVia forwards a frame out one port. extraDelay holds the frame
// back after serialization (reorder injection) without occupying the
// output resource, so subsequent frames overtake it on delivery.
func (s *Switch) deliverVia(p *Port, f *Frame, extraDelay sim.Duration) {
	s.forwards++
	// Forwarding latency, then serialization on the (possibly busy)
	// output port, then propagation to the station.
	start := s.eng.Now().Add(s.cfg.ForwardLatency)
	done := p.out.ReserveAt(start, f.WireTime())
	arrive := done.Add(s.cfg.PropDelay + extraDelay)
	p.rxFrames++
	p.rxBytes += int64(f.PayloadLen)
	s.eng.At(arrive, func() { p.station.Deliver(f) })
}

// Stats summarizes a port's traffic for tests and reports.
type PortStats struct {
	TxFrames, RxFrames int64
	TxBytes, RxBytes   int64
	OutUtilization     float64
}

// Stats reports the port's counters.
func (p *Port) Stats() PortStats {
	return PortStats{
		TxFrames:       p.txFrames,
		RxFrames:       p.rxFrames,
		TxBytes:        p.txBytes,
		RxBytes:        p.rxBytes,
		OutUtilization: p.out.Utilization(),
	}
}

package ethernet

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
)

// The timing of a Packet Engines-class Gigabit switch and its links: a
// few microseconds of store-and-forward latency and a short cable.
// Frame faults come from a faults.Plan installed with Switch.SetFaults.
const (
	// forwardLatency is the store-and-forward processing delay between
	// full reception on an input port and the start of transmission on
	// the output port (lookup + crossbar).
	forwardLatency = 3 * sim.Microsecond
	// propDelay is the one-way cable propagation delay of every link,
	// station links and trunks alike.
	propDelay = 500 * sim.Nanosecond
)

// Switch is a store-and-forward Ethernet switch, always a member of a
// Fabric. Each attached station gets a full-duplex port: the
// station→switch direction is serialized by the station's own
// transmitter (see Port.Transmit); the switch→station direction is
// serialized by a per-output-port resource, which produces output
// queueing when multiple senders converge on one receiver.
type Switch struct {
	eng  *sim.Engine
	plan *faults.Plan

	// Counters, published by the cluster's "switch" source on a
	// one-switch cluster and summed into its "fabric" source otherwise.
	forwards       sim.Counter `metric:"forwards"`              // frames sent out a port or onto a trunk
	drops          sim.Counter `metric:"fault_drops"`           // frames dropped by loss injection
	partitionDrops sim.Counter `metric:"fault_partition_drops"` // frames dropped by partition/link-down clauses
	dups           sim.Counter `metric:"fault_dups"`            // frames delivered twice
	corruptions    sim.Counter `metric:"fault_corruptions"`     // frames with flipped bits (dropped at FCS check)
	reorders       sim.Counter `metric:"fault_reorders"`        // frames delayed past their successors

	// The switch carries a fabric-wide id and name and hands frames for
	// stations attached elsewhere to the fabric's router.
	fab  *Fabric
	id   int
	name string
	dead bool

	// ingress is forward bound to s once, the fn of every frame event
	// that ends at this switch; its arg is the *Frame.
	ingress func(any)
}

// NewSwitch returns the only switch of a private one-switch fabric —
// the paper's testbed, with no trunks and nothing to route.
func NewSwitch(e *sim.Engine) *Switch {
	return NewFabric(e, FabricConfig{}).AddSwitch("switch")
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
	// deliver hands an arriving *Frame to the station attached at fire
	// time, so a Rebind in between redirects frames in flight.
	deliver func(any)

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
		tx:      sim.NewResource(s.eng),
		out:     sim.NewResource(s.eng),
	}
	p.deliver = func(a any) { p.station.Deliver(a.(*Frame)) }
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
func (s *Switch) Forwards() int64 { return s.forwards.Value }

// ID reports the switch's fabric id (creation order).
func (s *Switch) ID() int { return s.id }

// Name reports the switch's fabric name ("switch" for NewSwitch;
// "leaf0", "spine1", ... on a spine-leaf fabric).
func (s *Switch) Name() string { return s.name }

// Dead reports whether a fault plan's SwitchCrash has killed this
// switch.
func (s *Switch) Dead() bool { return s.dead }

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
	arrive := txDone.Add(propDelay)
	p.sw.eng.AtArg(arrive, p.sw.ingress, f)
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
			s.partitionDrops.Inc()
			s.eng.Tracef("switch", "PARTITION-DROP %d->%d len=%d", f.Src, f.Dst, f.PayloadLen)
		} else {
			s.drops.Inc()
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
		s.corruptions.Inc()
		s.eng.Tracef("switch", "CORRUPT %d->%d len=%d", f.Src, f.Dst, f.PayloadLen)
	}
	if act.Delay > 0 {
		s.reorders.Inc()
		s.eng.Tracef("switch", "REORDER %d->%d len=%d delay=%v", f.Src, f.Dst, f.PayloadLen, act.Delay)
	}
	if f.Dst == Broadcast {
		panic("ethernet: broadcast frames are not supported")
	}
	if act.Dup {
		s.dups.Inc()
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
		s.fab.routeDrops.Inc()
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
	s.forwards.Inc()
	// Forwarding latency, then serialization on the (possibly busy)
	// output port, then propagation to the station.
	start := s.eng.Now().Add(forwardLatency)
	done := p.out.ReserveAt(start, f.WireTime())
	arrive := done.Add(propDelay + extraDelay)
	p.rxFrames++
	p.rxBytes += int64(f.PayloadLen)
	s.eng.AtArg(arrive, p.deliver, f)
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

// Package ethernet models a switched Gigabit Ethernet fabric: full-duplex
// 1 Gbps links and a store-and-forward switch with per-output-port
// queueing, as in the paper's testbed (Alteon NICs on a Packet Engines
// switch). Serialization accounts for the full on-wire cost of a frame —
// preamble, header, FCS and inter-frame gap — so bandwidth ceilings come
// out of wire arithmetic rather than tuned constants.
package ethernet

import (
	"fmt"

	"repro/internal/sim"
)

// Wire-format constants for Ethernet (bytes).
const (
	preambleBytes = 8  // preamble + start-of-frame delimiter
	headerBytes   = 14 // dst MAC + src MAC + ethertype
	fcsBytes      = 4  // frame check sequence
	ifgBytes      = 12 // inter-frame gap (96 bit times)

	// MTU is the standard maximum Ethernet payload.
	MTU = 1500

	// JumboMTU is the 9000-byte jumbo-frame payload Alteon hardware
	// supports (the EMP papers report ~964 Mbps with jumbo frames).
	JumboMTU = 9000

	// minPayload is the minimum Ethernet payload (frames are padded).
	minPayload = 46

	// PerFrameOverhead is the non-payload on-wire cost of one frame.
	PerFrameOverhead = preambleBytes + headerBytes + fcsBytes + ifgBytes

	// GigabitBps is the line rate of every link in the fabric.
	GigabitBps = 1_000_000_000
)

// Addr identifies a station (a NIC) on the fabric. Addresses are assigned
// densely by the switch as stations attach.
type Addr int

// broadcast is the all-stations address.
const broadcast Addr = -1

// Frame is one Ethernet frame in flight. Payload is an opaque
// protocol-specific object (an EMP frame, a TCP segment, ...); PayloadLen
// is its size in bytes and determines wire time. The fabric never copies
// or inspects payloads — zero-copy at the model level, matching the
// zero-copy claim being studied.
type Frame struct {
	Src        Addr
	Dst        Addr
	PayloadLen int
	Payload    any
	// Flow is the ECMP flow label: a protocol-layer digest of the
	// connection 4-tuple (EMP stamps the message tag, TCP/UDP the port
	// pair) that multi-switch fabrics hash — together with Src, Dst and
	// the fabric seed — to pick among equal-cost paths, so one
	// connection's frames stay on one path while different connections
	// spread. Zero (control traffic without a connection context) is a
	// valid label. Single-switch fabrics ignore it.
	Flow uint32
	// Corrupt marks a frame whose bits were flipped in flight by fault
	// injection; the receiving MAC's FCS check (FCSOK) detects it and
	// the frame must be dropped, never delivered to a payload consumer.
	Corrupt bool
}

// FCSOK models the receiving MAC verifying the frame check sequence:
// false means the frame was damaged on the wire and must be discarded.
func (f *Frame) FCSOK() bool { return !f.Corrupt }

// wireBytes is the total on-wire size of the frame including preamble,
// header, FCS, inter-frame gap, and minimum-size padding.
func (f *Frame) wireBytes() int {
	p := f.PayloadLen
	if p < minPayload {
		p = minPayload
	}
	if p > JumboMTU {
		panic(fmt.Sprintf("ethernet: payload %d exceeds the jumbo MTU", p))
	}
	return p + PerFrameOverhead
}

// WireTime is the serialization delay of the frame at line rate.
func (f *Frame) WireTime() sim.Duration {
	return sim.BytesToDuration(f.wireBytes(), GigabitBps)
}

// station is anything that can accept delivered frames: a NIC model
// attaches to a switch port and receives frames via Deliver.
type station interface {
	// Deliver hands a fully received frame to the station. It is called
	// from event context and must not block.
	Deliver(f *Frame)
}

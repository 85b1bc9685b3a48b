// Package emp implements the Ethernet Message Passing protocol (Shivam,
// Wyckoff, Panda — SC'01) on the simulated Tigon2 NIC: a zero-copy,
// OS-bypass, NIC-driven, reliable tagged message system for Gigabit
// Ethernet. The sockets substrate (package core) is layered on top of
// the host API in endpoint.go; the firmware in firmware.go runs on the
// NIC's send and receive CPUs as event-driven activities (activity.go),
// each taking one work item at a time and running it to completion.
package emp

import (
	"errors"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// Tag is the 16-bit user-provided matching tag carried in every message.
type Tag uint16

// AnySource matches messages from any sender in a posted receive.
const AnySource ethernet.Addr = -2

// Wire-format constants.
const (
	// FrameHeaderBytes is the EMP header inside the Ethernet payload:
	// kind, source endpoint, tag, message id, fragment seq/count,
	// message length, checksum.
	FrameHeaderBytes = 24
	// MaxFragPayload is the message data carried per standard Ethernet
	// frame; endpoints on jumbo-framed NICs carry proportionally more
	// (see Endpoint fragmentation).
	MaxFragPayload = ethernet.MTU - FrameHeaderBytes
	// AckFrameBytes is the on-wire payload of an ack/nack frame.
	AckFrameBytes = 32
	// AckWindow is how many data frames the receiver NIC accumulates
	// before sending a reliability acknowledgment (the paper's
	// implementation chose four).
	AckWindow = 4
)

// FrameKind classifies an EMP frame, mirroring the paper's
// data/header/ack/nack classification step on the receive CPU.
type FrameKind uint8

const (
	// DataFrame carries a fragment of a message (the first fragment
	// doubles as the paper's "header" frame).
	DataFrame FrameKind = iota
	// AckFrame is a NIC-generated reliability acknowledgment; it is
	// produced and consumed by the NICs and never seen by the host.
	AckFrame
	// NackFrame requests retransmission from a given fragment.
	NackFrame
)

func (k FrameKind) String() string {
	switch k {
	case DataFrame:
		return "data"
	case AckFrame:
		return "ack"
	case NackFrame:
		return "nack"
	}
	return "?"
}

// WireFrame is the EMP-level payload of one Ethernet frame.
type WireFrame struct {
	Kind    FrameKind
	Src     ethernet.Addr
	Tag     Tag
	MsgID   uint64 // sender-scoped message identifier
	Seq     int    // fragment index within the message
	NFrag   int    // total fragments in the message
	MsgLen  int    // total message length in bytes
	FragLen int    // data bytes in this fragment
	// Data is the whole message's payload object, carried (by
	// reference — the model never copies payload bytes) on every
	// fragment so reassembly can complete regardless of which
	// retransmission arrives last. It is opaque to the protocol.
	Data any
	// AckSeq: for AckFrame, fragments [0, AckSeq) are acknowledged;
	// for NackFrame, retransmission is requested starting at AckSeq.
	AckSeq int

	// frame is the Ethernet frame that carries this one; the two share
	// one allocation.
	frame ethernet.Frame
}

// carry builds the Ethernet frame that carries wf from wf.Src to dst,
// in place, and returns it.
func (wf *WireFrame) carry(dst ethernet.Addr, payloadLen int, flow uint32) *ethernet.Frame {
	wf.frame = ethernet.Frame{
		Src:        wf.Src,
		Dst:        dst,
		PayloadLen: payloadLen,
		Payload:    wf,
		Flow:       flow,
	}
	return &wf.frame
}

// FragCount reports how many frames a message of n bytes needs at the
// given per-fragment payload capacity. A zero-length message still takes
// one (header-only) frame.
func FragCount(n int) int { return fragCountFor(n, MaxFragPayload) }

func fragCountFor(n, maxFrag int) int {
	if maxFrag <= 0 {
		maxFrag = MaxFragPayload
	}
	if n <= 0 {
		return 1
	}
	return (n + maxFrag - 1) / maxFrag
}

// fragLen reports the data bytes in fragment seq of an n-byte message
// fragmented at maxFrag bytes per frame.
func fragLen(n, seq, maxFrag int) int {
	if maxFrag <= 0 {
		maxFrag = MaxFragPayload
	}
	if n <= 0 {
		return 0
	}
	remaining := n - seq*maxFrag
	if remaining > maxFrag {
		return maxFrag
	}
	if remaining < 0 {
		return 0
	}
	return remaining
}

// wireBytes reports the Ethernet payload size of a data fragment.
func wireBytes(fragLen int) int { return FrameHeaderBytes + fragLen }

// Message is a completed incoming message as seen by the host.
type Message struct {
	Src  ethernet.Addr
	Tag  Tag
	Len  int
	Data any
}

// Status reports the outcome of a posted operation.
type Status uint8

const (
	// StatusPending means the operation has not completed.
	StatusPending Status = iota
	// StatusOK means the operation completed successfully.
	StatusOK
	// StatusFailed means the transfer was abandoned after exhausting
	// retransmission attempts.
	StatusFailed
	// StatusCancelled means the descriptor was unposted before use.
	StatusCancelled
	// StatusTruncated means an arriving message exceeded the posted
	// buffer and was dropped by the receive firmware.
	StatusTruncated
	// StatusNoDescriptors means the post was refused because the
	// endpoint's descriptor budget (Config.MaxDescriptors) is exhausted.
	// Nothing was posted; the caller may retry after completing or
	// unposting outstanding work.
	StatusNoDescriptors
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusOK:
		return "ok"
	case StatusFailed:
		return "failed"
	case StatusCancelled:
		return "cancelled"
	case StatusTruncated:
		return "truncated"
	case StatusNoDescriptors:
		return "no-descriptors"
	}
	return "?"
}

// ErrNoDescriptors is the error face of StatusNoDescriptors: a post was
// refused up front because the endpoint's descriptor budget is
// exhausted. Layered protocols translate it into their own
// out-of-resources error rather than treating it as a peer failure.
var ErrNoDescriptors = errors.New("emp: descriptor budget exhausted")

// The sender-side retransmission machinery.
const (
	// initialRTO is the first retransmission timeout, and the timeout
	// again after every acknowledgment advance.
	initialRTO = 500 * sim.Microsecond
	// rtoBackoff multiplies the retransmission timeout after each retry.
	rtoBackoff = 2
	// maxRTO caps the backed-off timeout.
	maxRTO = 5 * sim.Millisecond
	// maxRetries bounds consecutive retransmission attempts without any
	// acknowledgment progress before the send fails.
	maxRetries = 40
	// sendWindow bounds unacknowledged in-flight fragments per
	// destination (across messages): the sender-side throttle that
	// keeps the receiver NIC's ack latency under the RTO.
	sendWindow = 16
)

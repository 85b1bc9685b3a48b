// Package tcpip models the kernel-based protocol path the paper compares
// against: a TCP/IP stack with the traditional architecture of Figure 3 —
// user/kernel copies on both sides, system calls on every operation,
// interrupt-driven receive with coalescing (as in the standard Acenic
// driver), delayed acknowledgments, sliding-window flow control and
// slow-start/congestion-avoidance. UDP datagram sockets are included.
//
// Timing is charged to the same host cost model (package kernel) the
// substrate uses, plus TCP-specific per-segment and copy-and-checksum
// costs configured in StackConfig.
package tcpip

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TCP header flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagRST
	flagPSH
)

// Header sizes on the wire (IP + TCP/UDP, no options).
const (
	tcpIPHeaderBytes = 40
	udpIPHeaderBytes = 28
	// MSS is the TCP maximum segment size on Ethernet.
	MSS = ethernet.MTU - tcpIPHeaderBytes
	// MaxUDPFragPayload is the UDP payload per IP fragment.
	MaxUDPFragPayload = ethernet.MTU - udpIPHeaderBytes
)

// Segment is one TCP segment (the payload of an Ethernet frame).
// Sequence numbers are absolute int64 offsets — a modeling
// simplification of TCP's 32-bit wrapping space.
type Segment struct {
	Src, Dst         ethernet.Addr
	SrcPort, DstPort int
	Flags            int
	Seq              int64
	Ack              int64
	Wnd              int
	Len              int
	// Objs carries application payload objects whose serialized ranges
	// end within this segment, each at its end offset relative to Seq —
	// a retransmission that merges adjacent writes must still deliver
	// every object at its original stream position (see package stream).
	Objs []SegObj
	// Spans carries latency-decomposition spans whose write ranges end
	// within this segment, mirroring Objs: End is relative to Seq, and a
	// retransmission re-carries the span (its marks dedupe via MarkOnce).
	Spans []SegSpan

	// frame is the Ethernet frame that carries the segment. Every
	// transmission, a retransmission included, builds a new Segment, so
	// the segment and its frame share one allocation.
	frame ethernet.Frame
}

// SegSpan is one latency span riding a segment; End is the offset just
// past the span's last byte, relative to the segment's Seq.
type SegSpan struct {
	End  int
	Span *telemetry.Span
}

// SegObj is one application object riding a segment; End is the offset
// just past the object's last byte, relative to the segment's Seq.
type SegObj struct {
	End int
	Obj any
}

func (s *Segment) wireLen() int { return tcpIPHeaderBytes + s.Len }

func (s *Segment) String() string {
	fl := ""
	for _, f := range []struct {
		bit  int
		name string
	}{{flagSYN, "S"}, {flagACK, "A"}, {flagFIN, "F"}, {flagRST, "R"}, {flagPSH, "P"}} {
		if s.Flags&f.bit != 0 {
			fl += f.name
		}
	}
	return fmt.Sprintf("tcp %d:%d->%d:%d [%s] seq=%d ack=%d len=%d wnd=%d",
		s.Src, s.SrcPort, s.Dst, s.DstPort, fl, s.Seq, s.Ack, s.Len, s.Wnd)
}

// Datagram is one UDP datagram fragment.
type Datagram struct {
	Src, Dst         ethernet.Addr
	SrcPort, DstPort int
	ID               uint64 // datagram id for fragment reassembly
	FragIdx          int
	NFrags           int
	TotalLen         int
	FragLen          int
	Obj              any
}

func (d *Datagram) wireLen() int { return udpIPHeaderBytes + d.FragLen }

// The Linux 2.4.18 / Acenic calibration of the kernel stack.
const (
	// copyBandwidth is the user<->kernel copy-and-checksum rate in
	// bytes/sec. It is lower than the raw memcpy rate because the 2.4
	// kernel checksums while copying and the data is uncached.
	copyBandwidth int64 = 100 << 20
	// txSegCost is kernel CPU per transmitted segment (TCP output, IP,
	// routing, driver queueing).
	txSegCost = 4 * sim.Microsecond
	// rxSegCost is kernel CPU per received segment in the softirq path.
	rxSegCost = 4 * sim.Microsecond
	// driverTx is the driver+DMA cost to hand one frame to the NIC.
	driverTx = 1 * sim.Microsecond
	// coalesceDelay is the receive interrupt coalescing timer: the NIC
	// raises the interrupt this long after the first unclaimed frame.
	coalesceDelay = 78 * sim.Microsecond
	// coalesceFrames raises the interrupt early once this many frames
	// have accumulated.
	coalesceFrames = 4
	// delAckSegs acknowledges every n-th full segment immediately.
	delAckSegs = 2
	// delAckTimeout bounds how long an ack may be delayed.
	delAckTimeout = 40 * sim.Millisecond
	// minRTO is the minimum (and initial) retransmission timeout. The
	// effective timeout adapts to the measured round trip via the
	// Jacobson/Karels estimator but never drops below this floor, the
	// 2.4 kernel's 200 ms. A SYN retry waits one minRTO.
	minRTO = 200 * sim.Millisecond
	// maxRTO caps the adaptive retransmission timeout.
	maxRTO = 2 * sim.Second
	// initialCwnd is the initial congestion window in segments.
	initialCwnd = 2
	// synRetries bounds connection-attempt retransmissions.
	synRetries = 5
	// maxRexmits bounds consecutive retransmission timeouts on one
	// connection before it is failed with a reset error (Linux 2.4's
	// tcp_retries2 behavior).
	maxRexmits = 15
)

// StackConfig tunes the kernel stack.
type StackConfig struct {
	// SndBuf and RcvBuf are the per-connection socket buffer sizes.
	// The paper's baseline uses the era default of 16 KB and also
	// evaluates enlarged buffers (the 340 -> 550 Mbps jump).
	SndBuf, RcvBuf int
	// Linger gives Close SO_LINGER-with-timeout semantics: it blocks
	// until the FIN is acknowledged (every queued byte proven delivered)
	// or the deadline expires, in which case the connection is reset and
	// Close reports sock.ErrTimeout. Zero keeps the background close.
	Linger sim.Duration
	// DialTimeout bounds the whole connect() — handshake plus SYN
	// retries — surfacing sock.ErrTimeout. Zero keeps the
	// SYN-retry-only bound.
	DialTimeout sim.Duration
}

// DefaultStackConfig returns the era-default 16 KB socket buffers.
func DefaultStackConfig() StackConfig {
	return StackConfig{
		SndBuf: 16 << 10,
		RcvBuf: 16 << 10,
	}
}

// BigBufferConfig returns the enlarged-socket-buffer variant the paper
// uses to push TCP from ~340 to ~550 Mbps.
func BigBufferConfig() StackConfig {
	c := DefaultStackConfig()
	c.SndBuf = 256 << 10
	c.RcvBuf = 256 << 10
	return c
}

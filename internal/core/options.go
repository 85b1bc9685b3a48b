// Package core implements the paper's contribution: a low-overhead,
// user-level sockets substrate ("EMP substrate") that maps the sockets
// API onto the EMP protocol with no kernel involvement on the data path.
//
// The substrate resolves the TCP/EMP semantic mismatches the paper
// analyzes:
//
//   - Connection management by explicit data message exchange: listen()
//     pre-posts backlog descriptors on a per-port connection tag,
//     connect() sends a request message carrying the client's identity
//     and the tag assignments for the new connection (Section 5.1).
//   - Unexpected message arrivals by eager-with-flow-control for Data
//     Streaming sockets (pre-posted temp buffers, copy on read) and by
//     receive-time posting plus rendezvous for Datagram sockets
//     (Sections 5.2, 6.2).
//   - Resource management by an active-socket table and a close
//     handshake that unposts every descriptor (Section 5.3).
//   - Credit-based flow control with 2N posted descriptors, piggybacked
//     and delayed acknowledgments, and optionally acknowledgments via
//     the EMP unexpected queue to keep them out of the NIC's tag-match
//     walk (Sections 6.1, 6.3, 6.4).
//
// The function name-space overloading problem (Section 5.4) is resolved
// by the fd-tracking layer in package fdtable.
package core

import "repro/internal/sim"

// mode selects the socket semantics of a substrate connection.
type mode int

const (
	// dataStreaming preserves TCP's streaming semantics: arriving
	// messages land in substrate temp buffers and read() may consume
	// any number of bytes, at the price of one extra memory copy.
	dataStreaming mode = iota
	// datagram disables data streaming (Section 6.2): one write is one
	// message consumed by one read, enabling zero-copy receives when
	// the read is posted before the message arrives, and rendezvous
	// transfers for large messages. Deadlock avoidance is the
	// application's responsibility.
	datagram
)

func (m mode) String() string {
	if m == datagram {
		return "DG"
	}
	return "DS"
}

// The substrate's host-side costs, calibrated so its measured overhead
// over raw EMP matches the paper's ~9 us gap (37 us DS_DA_UQ vs 28 us
// EMP at 4 bytes), its buffer and protocol sizes, and its timeouts.
const (
	// libCall is the user-level library overhead charged per substrate
	// call (socket table lookup, credit accounting, header marshaling).
	libCall = 1200 * sim.Nanosecond
	// streamSendCost and streamRecvCost are the additional per-message
	// bookkeeping of the Data Streaming machinery (temp-buffer
	// management, credit/ack accounting) on each side.
	streamSendCost = 3 * sim.Microsecond
	streamRecvCost = 3 * sim.Microsecond
	// commThreadSync is the ~20 us thread synchronization cost every
	// delivery pays under Options.CommThread.
	commThreadSync = 20 * sim.Microsecond
	// dialBackoff is the delay before the first connect retry.
	dialBackoff = 1 * sim.Millisecond
	// bufSize is each temp buffer's capacity, the paper's 64 KB; it
	// also bounds the per-message payload in Data Streaming mode.
	bufSize = 64 << 10
	// rendezvousThreshold is the Datagram-mode message size above which
	// the substrate switches to the rendezvous protocol (request /
	// acknowledgment / direct zero-copy data).
	rendezvousThreshold = 64 << 10
	// closeTimeout bounds how long close() waits for the peer's close
	// acknowledgment before reclaiming descriptors anyway; it also
	// bounds a rendezvous wait and a synchronous connect's reply wait.
	closeTimeout = 50 * sim.Millisecond
)

// The recovery machinery Options.Recovery turns on.
const (
	// dialDeadline bounds the whole connect() — every attempt plus the
	// backoff between attempts — surfacing sock.ErrTimeout on expiry.
	dialDeadline = 10 * sim.Millisecond
	// dialJitter randomizes each connect backoff downward by up to this
	// fraction, so reconnect storms from many clients do not
	// synchronize.
	dialJitter = 0.5
	// keepaliveIdle is the interval at which an idle connection probes
	// its peer with a keepalive message on the ack channel. Because the
	// probe rides EMP reliability, a crashed or partitioned peer is
	// detected (and the connection failed with sock.ErrReset) even when
	// the application never writes.
	keepaliveIdle = 5 * sim.Millisecond
	// creditSyncAfter is the credit-reconciliation sweep's interval: a
	// writer stalled on credits for this long sends a kindCreditSync
	// probe, and the peer answers with its cumulative grant total,
	// repairing credits lost above EMP reliability (an unexpected-queue
	// drop at a faulty NIC). The sweep also harvests ack-channel
	// arrivals for stalled connections whose owner is not polling.
	creditSyncAfter = 1 * sim.Millisecond
)

// Options configures a substrate instance. The paper's evaluation
// configurations map as:
//
//	DS        = Mode: DataStreaming, DelayedAcks: false, UQAcks: false
//	DS_DA     = ... DelayedAcks: true
//	DS_DA_UQ  = ... DelayedAcks: true,  UQAcks: true
//	DG        = Mode: Datagram
type Options struct {
	Mode mode
	// Credits is N, the paper's credit count: the sender may have up to
	// N unacknowledged messages outstanding; the receiver pre-posts N
	// data descriptors (Data Streaming mode).
	Credits int
	// DelayedAcks sends a credit acknowledgment only after half the
	// credits are consumed instead of after every message (Section 6.3).
	DelayedAcks bool
	// UQAcks routes credit acknowledgments through the EMP unexpected
	// queue so no acknowledgment descriptors pollute the NIC's
	// tag-match walk (Section 6.4).
	UQAcks bool
	// Piggyback attaches pending credit returns to outgoing data
	// message headers when one is available (Section 6.1).
	Piggyback bool
	// ForceRendezvous makes every Datagram write use the rendezvous
	// protocol, for the Section 5.2 alternative analysis.
	ForceRendezvous bool
	// SyncConnect makes connect() wait for the server's accept reply.
	// The default (false) matches the paper's behavior: the client may
	// start sending data right after the connection request message,
	// hiding the connection time (Section 7.4).
	SyncConnect bool
	// CommThread models the rejected separate-communication-thread
	// alternative (Section 5.2): descriptor reposting moves off the
	// application's critical path but every delivery pays the measured
	// ~20 us thread synchronization cost.
	CommThread bool
	// Recovery turns on the failover machinery: connect() gives up
	// after dialDeadline and jitters its backoff by dialJitter, every
	// connection this substrate dials probes its idle peer each
	// keepaliveIdle (an accepted connection probes if its client
	// asked), and the credit-reconciliation sweep runs every
	// creditSyncAfter. Off (the default), connect is bounded by its
	// retry budget alone, with a deterministic backoff; nothing probes
	// an idle connection; and lost-credit drift is left for the audit
	// to detect.
	Recovery bool
	// DialRetries is how many times connect() retries a timed-out or
	// reset connection attempt before giving up; the first retry waits
	// dialBackoff and each later one twice as long as the last.
	DialRetries int
	// BootEpoch is forwarded to the EMP endpoint's message-ID salt
	// (emp.config.BootEpoch): a substrate rebuilt after a host crash
	// must run under a bumped epoch so peers' duplicate-suppression
	// state from the dead incarnation cannot swallow its messages.
	// Zero — the first boot — matches the historical ID sequence.
	BootEpoch uint64
	// Linger, when positive, makes Close first drain the connection —
	// send the shutdown message and wait for every credit to come home,
	// proving the peer consumed all our data — before emitting the
	// Section 5.3 closed message. Past the deadline Close falls back to
	// the abort path and returns sock.ErrTimeout. Zero keeps the
	// immediate close.
	Linger sim.Duration
	// EagerBudget bounds the bytes staged in Data Streaming receive
	// buffers across all of a substrate's connections. Over budget, the
	// substrate defers temp-buffer descriptor reposts (and the credit
	// returns that ride on them) until readers consume staged data, so a
	// stalled reader backpressures its senders instead of growing host
	// memory without limit. Zero means unlimited.
	EagerBudget int
	// DescriptorBudget caps the EMP endpoint's descriptors in use
	// (posted receives plus live send records); posts beyond it fail
	// fast with emp.ErrNoDescriptors. Zero uses the endpoint default.
	DescriptorBudget int
	// UQBytes caps the payload bytes parked in the EMP unexpected
	// queue; over the cap the oldest non-setup entry is dropped
	// (connection requests are never dropped — they are bounded by the
	// listener's refusal policy instead). Zero means unlimited.
	UQBytes int
}

// DefaultOptions returns the paper's standard Data Streaming
// configuration with all enhancements on (DS_DA_UQ, credit size 32).
func DefaultOptions() Options {
	return Options{
		Mode:        dataStreaming,
		Credits:     32,
		DelayedAcks: true,
		UQAcks:      true,
		Piggyback:   true,
		DialRetries: 2,
	}
}

// DatagramOptions returns the paper's Datagram configuration.
func DatagramOptions() Options {
	o := DefaultOptions()
	o.Mode = datagram
	return o
}

// BasicDSOptions returns the unenhanced Data Streaming configuration
// (the "DS" curve of Figure 11: per-message explicit acks, ack
// descriptors in the tag-match list).
func BasicDSOptions() Options {
	o := DefaultOptions()
	o.DelayedAcks = false
	o.UQAcks = false
	return o
}

// normalize clamps option values to sane ranges.
func (o Options) normalize() Options {
	if o.Credits < 1 {
		o.Credits = 1
	}
	if o.DialRetries < 0 {
		o.DialRetries = 0
	}
	if o.Linger < 0 {
		o.Linger = 0
	}
	if o.EagerBudget < 0 {
		o.EagerBudget = 0
	}
	if o.DescriptorBudget < 0 {
		o.DescriptorBudget = 0
	}
	if o.UQBytes < 0 {
		o.UQBytes = 0
	}
	return o
}

// ackDescriptors reports how many acknowledgment descriptors each side
// pre-posts: with delayed acks at most two acknowledgments are
// outstanding (one per half-window), otherwise one per credit — the
// paper's 50% vs 6.25% descriptor-mix arithmetic.
func (o Options) ackDescriptors() int {
	if o.UQAcks {
		return 0
	}
	if !o.DelayedAcks {
		return o.Credits
	}
	if o.Credits == 1 {
		return 1
	}
	return 2
}

// ackThreshold reports after how many consumed messages the receiver
// returns credits explicitly.
func (o Options) ackThreshold() int {
	if !o.DelayedAcks {
		return 1
	}
	t := o.Credits / 2
	if t < 1 {
		t = 1
	}
	return t
}

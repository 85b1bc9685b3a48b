package core

import (
	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/telemetry"
)

// msgKind classifies substrate messages carried inside EMP messages.
type msgKind uint8

const (
	kindData msgKind = iota
	kindCreditAck
	kindClose
	kindConnReq
	kindConnReply
	kindRendReq
	kindRendAck
	// kindKeepalive is an idle-connection probe on the ack channel: it
	// carries nothing, but sending it exercises EMP reliability, so a
	// crashed peer is detected by retry-budget exhaustion even when the
	// application has no data to send.
	kindKeepalive
	// kindConnRefused is the substrate's RST: sent to a dialer's ack
	// channel when its connection request overflows the listener's
	// backlog slack, targets a port nobody listens on, or is still
	// queued when the listener closes. The dialer fails with
	// sock.ErrRefused instead of hanging until a timeout.
	kindConnRefused
	// kindShutdown is the write-side FIN equivalent (shutdown(SHUT_WR)):
	// it rides the sequence-ordered data channel so the receiver applies
	// it only after every data message sent before it, then observes
	// end-of-stream while its own write direction keeps flowing. In Data
	// Streaming mode it consumes a credit like any data-channel message;
	// the receiver returns that credit (and flushes any withheld delayed
	// acks) immediately, which is what lets a lingering close on the
	// sending side converge.
	kindShutdown
	// kindCreditSync asks the peer for a fresh cumulative grant total. A
	// writer stalled on credits past creditSyncAfter sends it on
	// the ack channel; the receiver folds any withheld delayed acks into
	// its grant total and answers with a kindCreditAck carrying the
	// cumulative Grant. Because grants are applied by cumulative total
	// (header.Grant), the answer is idempotent: it repairs credits lost
	// to a dropped credit-update message without ever over-crediting.
	kindCreditSync
)

func (k msgKind) String() string {
	switch k {
	case kindData:
		return "data"
	case kindCreditAck:
		return "credit-ack"
	case kindClose:
		return "close"
	case kindConnReq:
		return "conn-req"
	case kindConnReply:
		return "conn-reply"
	case kindRendReq:
		return "rend-req"
	case kindRendAck:
		return "rend-ack"
	case kindKeepalive:
		return "keepalive"
	case kindConnRefused:
		return "conn-refused"
	case kindShutdown:
		return "shutdown"
	case kindCreditSync:
		return "credit-sync"
	}
	return "?"
}

// headerBytes is the substrate header prepended to every message: kind,
// piggybacked credit count, payload length.
const headerBytes = 16

// connReqBytes is the connection request message size (the paper's
// explicit data-message-exchange connection setup: client identity plus
// tag assignments).
const connReqBytes = 64

// header is the substrate message payload: the EMP message's opaque Data
// points at one of these.
type header struct {
	Kind  msgKind
	Piggy int // credits returned with this message
	// Grant is the sender's cumulative count of credits ever granted on
	// this connection, stamped on every credit-carrying message (explicit
	// acks and piggybacked data). The receiver applies the delta above
	// its own cumulative high-water mark, so duplicated or reordered
	// grants are no-ops and a grant lost above EMP reliability (an
	// unexpected-queue drop at a faulty NIC) is repaired by any later
	// credit message instead of stranding the window forever. Zero means
	// "no grant information" (control messages that carry no credits).
	Grant uint64
	Len   int // payload bytes (excluding the header itself)
	Obj   any // application payload object riding on this message
	// Seq orders data-channel messages per connection. EMP completes
	// descriptors in tag-match order, but an unexpected-queue claim can
	// complete the descriptor being posted right now rather than the
	// oldest one, so the substrate restores order itself.
	Seq uint64

	// Connection requests.
	Req *connRequest

	// Rendezvous requests/acks.
	RendTag emp.Tag
	RendLen int

	// Span carries the message's latency-decomposition marks end to
	// end: the header object itself travels through EMP (descriptor to
	// wire frame to completed message), so lower layers stamp the span
	// via the telemetry.Spanned assertion without importing this
	// package. Every data message carries one; control messages carry
	// none.
	Span *telemetry.Span
}

// TelemetrySpan implements telemetry.Spanned.
func (h *header) TelemetrySpan() *telemetry.Span { return h.Span }

// connRequest is the payload of the connection request message. The
// client allocates the tags for both directions of the new connection —
// tag matching at each receiver is per (source, tag), so client-chosen
// tags cannot collide across clients — and carries the connection
// options so both sides agree on the mode and credit counts.
type connRequest struct {
	ClientAddr ethernet.Addr
	ClientPort int
	ServerPort int

	// Tags the SERVER posts receives on (client -> server direction).
	ServerDataTag emp.Tag
	ServerAckTag  emp.Tag
	// Tags the CLIENT posts receives on (server -> client direction).
	ClientDataTag emp.Tag
	ClientAckTag  emp.Tag

	Mode        Mode
	Credits     int
	DelayedAcks bool
	UQAcks      bool
	Piggyback   bool
	SyncConnect bool
	// Keepalive carries whether the client probes its idle peer, so
	// both sides run (or skip) peer-liveness probing consistently.
	Keepalive bool
}

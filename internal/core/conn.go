package core

import (
	"fmt"

	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// stagedSpan queues a latency span against the staged-byte offset its
// payload ends at; Read retires spans as consumption passes them.
type stagedSpan struct {
	end  int64
	span *telemetry.Span
}

// dgMsg is one queued Datagram-mode message.
type dgMsg struct {
	n   int
	obj any
}

// Conn is one substrate connection endpoint. Field names take this
// side's perspective: dataInTag/ackInTag are the tags we post receives
// on; dataOutTag/ackOutTag are the tags we send with (the peer's "in"
// tags).
type Conn struct {
	sub  *Substrate
	peer ethernet.Addr
	opts Options

	localPort, remotePort int
	isClient              bool
	// id names this connection for telemetry: local addr:port to peer
	// addr:port, stable for the connection's lifetime.
	id string

	dataInTag, ackInTag   emp.Tag
	dataOutTag, ackOutTag emp.Tag

	// Receive side (Data Streaming): N pre-posted temp-buffer
	// descriptors; arriving payload is staged and copied to the user at
	// read() — the extra copy data streaming costs.
	dataHandles []*emp.RecvHandle
	dataBufKey  emp.BufKey
	rcv         *stream.Buffer
	dgq         []dgMsg
	// dgPending is the single in-flight zero-copy descriptor a Datagram
	// read (or rendezvous receive) has posted with the user's buffer;
	// cleanup unposts it so a host drain cannot strand it past the audit.
	dgPending *emp.RecvHandle
	// Sequence-ordered delivery: descriptors can complete out of
	// posting order (an unexpected-queue claim completes the descriptor
	// being posted, not the oldest), so arriving headers park in
	// holdback until their sequence number is next.
	txSeq    uint64
	rxNext   uint64
	holdback map[uint64]*header
	// pendingCredits counts consumed messages not yet acknowledged to
	// the sender; returned by piggyback or an explicit ack at the
	// threshold.
	pendingCredits int
	// grantedTotal is the cumulative count of credits this side has ever
	// granted to the peer, stamped (as header.Grant) on every
	// credit-carrying message so a grant lost above EMP reliability can
	// be repaired by any later one. grantSeen is the peer's cumulative
	// total as last applied here: grants are applied as the delta above
	// it, making duplicates and reordered grants no-ops.
	grantedTotal uint64
	grantSeen    uint64
	eof          bool
	// eofSeen: a read has returned the 0-length end-of-stream. The read
	// side can never produce anything new after that, so the readable
	// edge is spent — PollIn stops asserting and a poller does not storm
	// on a half-closed connection the application already drained.
	eofSeen bool

	// Send side.
	credits    int
	sendKey    emp.BufKey
	userKey    emp.BufKey
	ackHandles []*emp.RecvHandle // empty when UQAcks

	connReplied bool
	rendAcks    []*header
	// aborting marks that an abort has already spawned the asynchronous
	// descriptor-reclaim proc, so repeated failed ops do not spawn more.
	aborting   bool
	closeSent  bool
	peerClosed bool
	cleaned    bool
	err        error
	// shutSent: we sent kindShutdown (CloseWrite); writes fail, reads
	// keep draining. peerShut: the peer's shutdown arrived; we see EOF
	// after draining but our writes still flow. rdShut: CloseRead was
	// called — reads return EOF and late arrivals are discarded (with
	// their descriptors recycled and credits returned, so the peer's
	// writer is not wedged).
	shutSent bool
	peerShut bool
	rdShut   bool

	// deferredDesc counts temp-buffer descriptor reposts (each with its
	// credit return) withheld while the substrate's eager pool is over
	// budget; eagerRelease reposts them as readers consume staged bytes.
	deferredDesc int

	// rdl/wdl are the absolute read/write deadlines (sock.Deadliner);
	// zero means none. Consulted when an operation blocks.
	rdl, wdl sim.Time

	// ready parks procs blocked on this connection's events (credit
	// stalls, descriptor completions, control arrivals); src feeds
	// registered pollers. Both wake only this connection's consumers.
	ready *sim.Cond
	src   sock.NoteSource
	// lastIO is when the connection last saw application activity; the
	// keepalive loop probes only connections idle past the interval.
	lastIO sim.Time
	// stallSince is when the writer entered its current credit stall and
	// has seen no grant since (zero = not stalled); the health monitor
	// reads it and the credit-reconciliation sweep probes from it.
	// lastSync is when the last kindCreditSync probe went out.
	stallSince sim.Time
	lastSync   sim.Time
	// sendSince is when the oldest proc currently blocked inside a
	// local send-completion wait entered it (zero = none blocked), and
	// sendWaiters counts them. A send that the NIC firmware never
	// drains — a wedge — produces no retransmission streak (the
	// retransmit scheduler is itself firmware) and no credit stall, so
	// this wait age is the only host-visible symptom; the health
	// monitor reads it like a driver's command-completion watchdog.
	sendSince   sim.Time
	sendWaiters int

	// spanQ holds latency spans for staged-but-unread bytes, oldest
	// first, keyed by the absolute staged offset their payload ends at.
	spanQ []stagedSpan
}

// flight returns the connection's flight recorder.
func (c *Conn) flight() *telemetry.Recorder {
	return c.sub.Tel.Flight(c.id)
}

// popReadSpans retires latency spans whose payload the reader has fully
// consumed, marking the read wake instant and folding the decomposition
// into the host's histograms.
func (c *Conn) popReadSpans(now sim.Time) {
	for len(c.spanQ) > 0 && c.spanQ[0].end <= c.rcv.Base() {
		sp := c.spanQ[0].span
		c.spanQ = c.spanQ[1:]
		sp.Mark("read", now)
		c.sub.Tel.RecordSpan(sp)
	}
}

var _ sock.Conn = (*Conn)(nil)
var _ sock.Pollable = (*Conn)(nil)
var _ sock.Deadliner = (*Conn)(nil)

// Wedge bounds for the substrate connection monitor. A credit stall is
// backpressure, not necessarily failure, so the stall bound is set well
// past any healthy reader's ack latency; the retransmission streak
// bound is calibrated against EMP's RTO ladder (a streak of 12
// represents roughly 50 ms of escalating timeouts — far beyond one
// recoverable loss, well short of the ~150 ms EMP needs to exhaust its
// own retry budget).
const (
	healthWedgeStall  = 20 * sim.Millisecond
	healthWedgeStreak = 12
)

// Wedged reports whether the connection has stopped making progress,
// judged from protocol signals already on hand: terminal state, the
// EMP retransmission streak toward the peer, and how long the writer
// has been stalled on credits with no grant arriving (or waiting on a
// send the firmware does not complete). It charges no simulated time,
// so watchdogs may poll it freely.
func (c *Conn) Wedged() bool {
	if c.err != nil || c.cleaned {
		return true
	}
	if c.sub.EP.ResendStreak(c.peer) >= healthWedgeStreak {
		return true
	}
	now := c.sub.Eng.Now()
	return c.stallSince != 0 && now.Sub(c.stallSince) >= healthWedgeStall ||
		c.sendSince != 0 && now.Sub(c.sendSince) >= healthWedgeStall
}

// send posts a message on the connection's behalf and waits for local
// completion, tracking how long the wait has been outstanding so
// Wedged can notice a firmware that stopped draining sends. The wait
// also wakes on connection failure: an abort (a health watchdog's, or
// a peer reset) must not leave the writer parked behind a wedged
// firmware that will not complete the send until the wedge clears.
func (c *Conn) send(p *sim.Proc, tag emp.Tag, length int, data any, key emp.BufKey) emp.Status {
	h := c.sub.EP.PostSend(p, c.peer, tag, length, data, key)
	if h.Status() != emp.StatusPending {
		return h.Status()
	}
	if c.sendWaiters == 0 {
		c.sendSince = c.sub.Eng.Now()
	}
	c.sendWaiters++
	h.SetNotify(c)
	c.ready.WaitFor(p, func() bool {
		return h.Status() != emp.StatusPending || c.err != nil || c.cleaned
	})
	c.sendWaiters--
	if c.sendWaiters == 0 {
		c.sendSince = 0
	}
	if h.Status() == emp.StatusPending {
		// Conn failed under the wait; the descriptor stays with the NIC
		// and completes (or is reclaimed) on its own schedule.
		return emp.StatusFailed
	}
	return h.Status()
}

// Abort fails the connection locally and immediately. Blocked reads
// and writes wake with sock.ErrReset and reclaim the connection's
// descriptors on their way out (Read/Write on a failed connection run
// the abort cleanup); no close message is sent — the peer is presumed
// unreachable and recovers through its own health monitor, keepalive
// probe, or EMP retry budget. Safe to call from event context.
func (c *Conn) Abort() {
	if c.cleaned || c.err != nil {
		return
	}
	c.flight().Record(c.sub.Eng.Now(), "abort", "")
	c.fail(sock.ErrReset)
}

// SetDeadline implements sock.Deadliner.
func (c *Conn) SetDeadline(t sim.Time) { c.rdl, c.wdl = t, t }

// SetReadDeadline implements sock.Deadliner.
func (c *Conn) SetReadDeadline(t sim.Time) { c.rdl = t }

// SetWriteDeadline implements sock.Deadliner.
func (c *Conn) SetWriteDeadline(t sim.Time) { c.wdl = t }

// Notify wakes this connection's blocked procs and registered pollers:
// descriptor completions and routed unexpected-queue arrivals land
// here instead of broadcasting to every blocked proc on the host. The
// fired mask is deliberately broad — readiness is re-checked at
// delivery, so a spurious class costs one filtered check on this
// object, never a host-wide re-scan.
func (c *Conn) Notify() {
	c.sub.sweepNote(c)
	c.ready.Broadcast()
	c.src.Fire(sock.PollIn | sock.PollOut | sock.PollErr)
}

// connOptions derives the per-connection options both sides agree on
// from the connection request.
func connOptions(base Options, req *connRequest) Options {
	o := base
	o.Mode = req.Mode
	o.Credits = req.Credits
	o.DelayedAcks = req.DelayedAcks
	o.UQAcks = req.UQAcks
	o.Piggyback = req.Piggyback
	// Per connection, Recovery only decides keepalive probing, and the
	// client's choice holds on both ends.
	o.Recovery = req.Keepalive
	return o.normalize()
}

// newConn builds one side of a connection and posts its descriptors:
// N data descriptors plus the acknowledgment descriptors of the 2N
// scheme (unless acks ride the unexpected queue). Datagram mode posts
// nothing up front — receives are posted by read() for zero-copy
// delivery.
func newConn(s *Substrate, peer ethernet.Addr, req *connRequest, isClient bool) *Conn {
	c := &Conn{
		sub:      s,
		peer:     peer,
		opts:     connOptions(s.Opts, req),
		isClient: isClient,
		credits:  req.Credits,
		ready:    sim.NewCond(s.Eng, "conn.ready"),
	}
	if isClient {
		c.localPort, c.remotePort = req.ClientPort, req.ServerPort
		c.dataInTag, c.ackInTag = req.ClientDataTag, req.ClientAckTag
		c.dataOutTag, c.ackOutTag = req.ServerDataTag, req.ServerAckTag
	} else {
		c.localPort, c.remotePort = req.ServerPort, req.ClientPort
		c.dataInTag, c.ackInTag = req.ServerDataTag, req.ServerAckTag
		c.dataOutTag, c.ackOutTag = req.ClientDataTag, req.ClientAckTag
	}
	c.id = fmt.Sprintf("%d:%d-%d:%d", s.addr, c.localPort, peer, c.remotePort)
	c.dataBufKey = s.allocKey()
	c.sendKey = s.allocKey()
	c.userKey = s.allocKey()
	c.holdback = make(map[uint64]*header)
	c.lastIO = s.Eng.Now()
	s.active.add(c)
	s.chans[chanKey{peer, c.dataInTag}] = c
	s.chans[chanKey{peer, c.ackInTag}] = c
	if c.opts.Recovery {
		s.Eng.Spawn("keepalive", c.keepaliveLoop)
	}
	role := "server"
	if isClient {
		role = "client"
	}
	c.flight().Recordf(s.Eng.Now(), "open", "%s mode=%d credits=%d", role, c.opts.Mode, req.Credits)
	return c
}

// fail marks the connection failed: blocked Read/Write callers
// wake with err on their next predicate check. Safe to call from event
// context (the EMP send-failure path).
func (c *Conn) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.sub.ConnsFailed.Inc()
	c.sub.Eng.Tracef("substrate", "conn %d:%d -> %d:%d FAILED: %v",
		c.sub.addr, c.localPort, c.peer, c.remotePort, err)
	c.flight().Recordf(c.sub.Eng.Now(), "fail", "%v", err)
	if err == sock.ErrReset {
		// The connection died under the application: capture the event
		// history as a failure artifact.
		c.sub.Tel.DumpFlight(c.id, "reset")
	}
	c.Notify()
}

// abort reclaims a failed connection's resources without the Section 5.3
// close handshake — the peer is unreachable, so no close message can be
// delivered. Every descriptor is still unposted ("used or unposted") and
// the socket leaves the active table, so failure leaks nothing.
func (c *Conn) abort(p *sim.Proc) {
	if c.cleaned || c.aborting {
		return
	}
	c.aborting = true
	c.closeSent = true // suppress any later close message
	// Reclaim in a separate proc: each Unpost parks in a mailbox round
	// trip, and against a wedged firmware that round trip lasts until
	// the wedge clears. The application op that hit the failure must
	// surface its error now — a recovery layer cannot redial while its
	// caller is stuck burying the old connection's descriptors.
	c.sub.Eng.Spawn("conn-abort", func(q *sim.Proc) { c.cleanup(q) })
}

// keepaliveLoop probes the peer while the connection sits idle. The
// probe is a no-op message on the ack channel; its value is that EMP
// reliability will retry it and report failure if the peer is gone,
// turning silent peer death into a connection error for applications
// that only ever block in Read. It stops once the peer's close has
// landed, read or not: the peer has no connection left to probe.
func (c *Conn) keepaliveLoop(p *sim.Proc) {
	for {
		p.Sleep(keepaliveIdle)
		if c.cleaned || c.err != nil || c.closeSent || c.peerCloseLanded() {
			return
		}
		if c.sub.Eng.Now().Sub(c.lastIO) < keepaliveIdle {
			continue // application traffic is already probing the peer
		}
		c.sub.KeepalivesSent.Inc()
		c.sub.Eng.Tracef("substrate", "keepalive %d -> %d", c.sub.addr, c.peer)
		st := c.send(p, c.ackOutTag, headerBytes,
			&header{Kind: kindKeepalive}, emp.KeyNone)
		if st != emp.StatusOK {
			c.fail(sock.ErrReset)
			return
		}
	}
}

// peerCloseLanded reports whether the peer's close has arrived: applied,
// or still waiting for the application to read up to it in a completed
// data descriptor, the holdback or (in Datagram mode, which posts no
// standing data descriptors) the unexpected queue.
func (c *Conn) peerCloseLanded() bool {
	if c.peerClosed {
		return true
	}
	for _, h := range c.dataHandles {
		if hdr, ok := h.Message().Data.(*header); ok && hdr.Kind == kindClose {
			return true
		}
	}
	for _, hdr := range c.holdback {
		if hdr.Kind == kindClose {
			return true
		}
	}
	parked := false
	c.sub.EP.VisitUnexpected(func(m emp.Message) {
		if hdr, ok := m.Data.(*header); ok && hdr.Kind == kindClose &&
			m.Src == c.peer && m.Tag == c.dataInTag {
			parked = true
		}
	})
	return parked
}

// postInitialDescriptors posts the connection's standing descriptors;
// must run in process context right after newConn.
func (c *Conn) postInitialDescriptors(p *sim.Proc) {
	if c.opts.Mode != dataStreaming {
		// Datagram mode posts receives at read() time (zero-copy) and
		// consumes all control traffic via the unexpected queue.
		return
	}
	c.rcv = stream.NewBuffer(0)
	for i := 0; i < c.opts.Credits; i++ {
		c.postDataDesc(p)
	}
	for i := 0; i < c.opts.ackDescriptors(); i++ {
		c.postAckDesc(p)
	}
}

func (c *Conn) postDataDesc(p *sim.Proc) {
	// A cleaned connection reposts nothing: cleanup unposts the handle
	// lists it snapshot, and a repost racing it (a crossing close
	// processed while cleanup blocks in an unpost mailbox round trip)
	// would orphan a descriptor forever.
	if c.cleaned {
		return
	}
	h := c.sub.EP.PostRecv(p, c.peer, c.dataInTag, headerBytes+bufSize, c.dataBufKey)
	h.SetNotify(c)
	c.dataHandles = append(c.dataHandles, h)
}

func (c *Conn) postAckDesc(p *sim.Proc) {
	if c.cleaned {
		return
	}
	h := c.sub.EP.PostRecv(p, c.peer, c.ackInTag, headerBytes, emp.KeyNone)
	h.SetNotify(c)
	c.ackHandles = append(c.ackHandles, h)
}

// LocalAddr implements sock.Conn.
func (c *Conn) LocalAddr() sock.Addr { return c.sub.addr }

// RemoteAddr implements sock.Conn.
func (c *Conn) RemoteAddr() sock.Addr { return c.peer }

// readable reports whether Read would return without blocking: a
// user-level check of buffered data and completion flags.
func (c *Conn) readable() bool {
	if c.err != nil || c.cleaned {
		return true
	}
	if (c.eof || c.rdShut) && !c.eofSeen {
		return true
	}
	if c.opts.Mode == dataStreaming {
		if c.rcv != nil && c.rcv.Len() > 0 {
			return true
		}
		if _, ok := c.holdback[c.rxNext]; ok {
			return true
		}
		return c.anyDataCompleted()
	}
	// Datagram: queued messages or an early arrival in the unexpected
	// queue.
	return len(c.dgq) > 0 || c.sub.EP.PeekUnexpected(c.peer, c.dataInTag)
}

// writable reports whether Write would make progress without a credit
// stall: a send credit is in hand, the mode has no credit flow control
// (Datagram), or Write would return immediately with an error.
func (c *Conn) writable() bool {
	if c.err != nil || c.cleaned || c.closeSent || c.peerClosed || c.shutSent {
		return true
	}
	if c.opts.Mode == datagram {
		return true
	}
	return c.credits > 0
}

// PollState implements sock.Pollable.
func (c *Conn) PollState() sock.PollEvents {
	var ev sock.PollEvents
	if c.readable() {
		ev |= sock.PollIn
	}
	if c.writable() {
		ev |= sock.PollOut
	}
	if c.err != nil {
		ev |= sock.PollErr
	}
	return ev
}

// PollSource implements sock.Pollable.
func (c *Conn) PollSource() *sock.NoteSource { return &c.src }

// --- Acknowledgment plumbing ---------------------------------------------

// applyGrant applies a credit-carrying header: the delta of its
// cumulative Grant above what we have already applied. Duplicated or
// reordered grants are no-ops, so a reconciliation answer can always be
// resent safely; a Grant-less header (defensive — every in-tree grant
// carries one) falls back to the per-message delta. Reports the credits
// applied.
func (c *Conn) applyGrant(hdr *header) int {
	n := hdr.Piggy
	if hdr.Grant != 0 {
		if hdr.Grant <= c.grantSeen {
			return 0 // stale: a later cumulative grant already covered it
		}
		n = int(hdr.Grant - c.grantSeen)
		c.grantSeen = hdr.Grant
	}
	c.credits += n
	if c.credits > 0 {
		c.stallSince = 0
		c.sub.sweepStall(c, false)
	}
	return n
}

// handleControl processes one message from the ack channel.
func (c *Conn) handleControl(p *sim.Proc, hdr *header) {
	switch hdr.Kind {
	case kindCreditAck:
		n := c.applyGrant(hdr)
		c.flight().Recordf(c.sub.Eng.Now(), "credit-grant", "n=%d have=%d", n, c.credits)
	case kindCreditSync:
		// A stalled peer writer asks for a fresh cumulative grant total:
		// fold any withheld delayed acks in and answer with the
		// cumulative figure. The answer is idempotent at the peer, so a
		// lost original costs nothing and a duplicate over-credits
		// nothing. A failed answer send is equally harmless — the folded
		// credits stay in grantedTotal and ride the next credit message.
		n := c.pendingCredits
		c.pendingCredits = 0
		c.grantedTotal += uint64(n)
		c.flight().Recordf(c.sub.Eng.Now(), "credit-sync", "answer total=%d flushed=%d", c.grantedTotal, n)
		c.sub.EP.PostSend(p, c.peer, c.ackOutTag, headerBytes,
			&header{Kind: kindCreditAck, Piggy: n, Grant: c.grantedTotal}, emp.KeyNone)
	case kindConnReply:
		c.connReplied = true
	case kindRendAck:
		// Handled inline by the rendezvous sender via rendAckReady.
		c.rendAcks = append(c.rendAcks, hdr)
	case kindKeepalive:
		// Peer-liveness probe: receiving it requires no action (the
		// NIC-level acknowledgment it elicited is the liveness signal).
	case kindConnRefused:
		// The substrate's RST: the listener's backlog overflowed, the
		// port has no listener, or the listener closed with our request
		// queued. With asynchronous connect the dialer learns here, on
		// its first blocked operation, that the connection never existed.
		c.flight().Record(c.sub.Eng.Now(), "refused", "")
		c.fail(sock.ErrRefused)
	}
	c.Notify()
}

// pollAcks drains the acknowledgment channel without blocking: claimed
// from the unexpected queue (UQAcks) or from completed pre-posted ack
// descriptors (which are recycled). Acknowledgments are commutative
// (credit sums and flags), so completion order does not matter.
func (c *Conn) pollAcks(p *sim.Proc) {
	if c.opts.UQAcks || c.opts.Mode == datagram {
		// Cheap user-space peek first; the claim (with its bookkeeping
		// cost) runs only when something is actually waiting.
		for c.sub.EP.PeekUnexpected(c.peer, c.ackInTag) {
			m, ok := c.sub.EP.PollUnexpected(p, c.peer, c.ackInTag, headerBytes)
			if !ok {
				return
			}
			if hdr, ok := m.Data.(*header); ok {
				c.handleControl(p, hdr)
			}
		}
		return
	}
	for i := 0; i < len(c.ackHandles); {
		h := c.ackHandles[i]
		if h.Status() == emp.StatusPending {
			i++
			continue
		}
		c.ackHandles = append(c.ackHandles[:i], c.ackHandles[i+1:]...)
		if h.Status() == emp.StatusOK {
			if hdr, ok := h.Message().Data.(*header); ok {
				c.handleControl(p, hdr)
			}
			c.postAckDesc(p) // recycle
		}
	}
}

// anyAckCompleted reports whether some posted ack descriptor finished.
func (c *Conn) anyAckCompleted() bool {
	for _, h := range c.ackHandles {
		if h.Status() != emp.StatusPending {
			return true
		}
	}
	return false
}

// waitControlEvent blocks until something may have arrived on the ack
// channel — or extra() reports readiness — or the deadline passes. It
// relies on descriptor completions and unexpected-queue arrivals
// notifying this connection.
func (c *Conn) waitControlEvent(p *sim.Proc, deadline sim.Time, extra func() bool) bool {
	pred := func() bool {
		if c.err != nil || c.peerClosed {
			return true
		}
		if extra != nil && extra() {
			return true
		}
		if c.opts.UQAcks || c.opts.Mode == datagram {
			return c.sub.EP.PeekUnexpected(c.peer, c.ackInTag)
		}
		return c.anyAckCompleted()
	}
	remain := deadline.Sub(p.Now())
	if remain <= 0 {
		return false
	}
	if deadline == sim.Forever {
		c.ready.WaitFor(p, pred)
		return true
	}
	return c.ready.WaitForTimeout(p, remain, pred)
}

// waitAckEvent is waitControlEvent with no extra readiness source.
func (c *Conn) waitAckEvent(p *sim.Proc, deadline sim.Time) bool {
	return c.waitControlEvent(p, deadline, nil)
}

// ackThresholdNow is the effective delayed-ack threshold: once the
// peer's shutdown has arrived it is draining toward close, so nothing
// is withheld — every consumed message is acknowledged at once, which
// is what lets the peer's lingering close observe its credits home.
func (c *Conn) ackThresholdNow() int {
	if c.peerShut {
		return 1
	}
	return c.opts.ackThreshold()
}

// returnCredits accounts consumed messages and sends the explicit
// credit acknowledgment at the delayed-ack threshold (Section 6.3).
func (c *Conn) returnCredits(p *sim.Proc) {
	if c.pendingCredits >= c.ackThresholdNow() && !c.peerClosed {
		c.sub.ExplicitAcks.Inc()
		n := c.pendingCredits
		c.pendingCredits = 0
		c.grantedTotal += uint64(n)
		h := c.sub.EP.PostSend(p, c.peer, c.ackOutTag, headerBytes,
			&header{Kind: kindCreditAck, Piggy: n, Grant: c.grantedTotal}, emp.KeyNone)
		if h.Status() == emp.StatusNoDescriptors {
			// Descriptor budget exhausted: the ack never left, so the
			// credits stay pending (and ungranted) and ride the next
			// piggyback or ack.
			c.pendingCredits += n
			c.grantedTotal -= uint64(n)
		}
	}
}

// creditSweepTick runs one credit-reconciliation pass for the
// substrate's sweep process (Options.Recovery): harvest
// ack-channel arrivals the blocked owner is not polling — an inbound
// kindCreditSync probe would otherwise sit unanswered under a reader
// blocked on the data channel — and probe the peer once the writer has
// been stalled past the threshold with no grant arriving.
func (c *Conn) creditSweepTick(p *sim.Proc) {
	if c.cleaned || c.err != nil || c.opts.Mode != dataStreaming {
		return
	}
	// Harvest first: the missing grant (or a peer's probe) may already
	// be parked locally.
	if c.sub.EP.PeekUnexpected(c.peer, c.ackInTag) || c.anyAckCompleted() {
		c.pollAcks(p)
	}
	if c.peerClosed || c.closeSent {
		return
	}
	now := c.sub.Eng.Now()
	if c.stallSince == 0 || now.Sub(c.stallSince) < creditSyncAfter {
		return
	}
	if c.lastSync != 0 && now.Sub(c.lastSync) < creditSyncAfter {
		return
	}
	c.lastSync = now
	c.sub.CreditSyncs.Inc()
	c.flight().Recordf(now, "credit-sync", "probe stalled=%v", now.Sub(c.stallSince))
	c.sub.EP.PostSend(p, c.peer, c.ackOutTag, headerBytes,
		&header{Kind: kindCreditSync}, emp.KeyNone)
}

// takeCredit blocks until a send credit is available, bounded by the
// write deadline.
func (c *Conn) takeCredit(p *sim.Proc) error { return c.takeCreditDeadline(p, c.wdl) }

// takeCreditDeadline is takeCredit with an explicit deadline (zero =
// none): the half-close and linger paths bound their credit takes by
// their own deadlines rather than the socket's write deadline.
func (c *Conn) takeCreditDeadline(p *sim.Proc, dl sim.Time) error {
	if c.credits == 0 {
		c.sub.CreditStalls.Inc()
		if c.stallSince == 0 {
			c.stallSince = c.sub.Eng.Now()
			c.sub.sweepStall(c, true)
		}
		c.flight().Record(c.sub.Eng.Now(), "credit-stall", "")
	}
	for c.credits == 0 {
		if c.err != nil {
			return c.err
		}
		if c.peerClosed || c.cleaned {
			return sock.ErrClosed
		}
		// With unexpected-queue acks there are no standing ack
		// descriptors; a blocked writer posts one on demand (it is
		// satisfied host-side from the unexpected queue if the ack
		// already arrived).
		if c.opts.UQAcks || c.opts.Mode == datagram {
			h := c.sub.EP.PostRecv(p, c.peer, c.ackInTag, headerBytes, emp.KeyNone)
			if h.Status() == emp.StatusNoDescriptors {
				// Descriptor budget exhausted: fall back to watching the
				// unexpected queue directly — a claim from it needs no
				// descriptor — instead of spinning on failed posts.
				if !c.ready.WaitUntil(p, dl, func() bool {
					return c.sub.EP.PeekUnexpected(c.peer, c.ackInTag) ||
						c.err != nil || c.peerClosed || c.cleaned
				}) {
					return sock.ErrTimeout
				}
				c.pollAcks(p)
				continue
			}
			h.SetNotify(c)
			// Wake on completion OR connection failure: a descriptor on
			// a failed connection never completes, and the §5.3 rule
			// says it must then be unposted, not abandoned.
			expired := !c.ready.WaitUntil(p, dl, func() bool {
				return h.Status() != emp.StatusPending || c.err != nil ||
					c.peerClosed || c.cleaned
			})
			if h.Status() != emp.StatusPending {
				m, st := c.sub.EP.WaitRecv(p, h) // immediate; charges the poll gap
				if st == emp.StatusOK {
					if hdr, ok := m.Data.(*header); ok {
						c.handleControl(p, hdr)
					}
				}
				continue
			}
			if !c.sub.EP.Unpost(p, h) {
				// An arrival consumed the descriptor while the unpost was
				// in flight: the ack must still be accounted.
				if h.Status() == emp.StatusOK {
					if hdr, ok := h.Message().Data.(*header); ok {
						c.handleControl(p, hdr)
					}
				}
				continue
			}
			if expired {
				return sock.ErrTimeout
			}
			continue
		}
		c.pollAcks(p)
		if c.credits > 0 {
			break
		}
		if len(c.ackHandles) == 0 {
			return sock.ErrClosed
		}
		if !c.ready.WaitUntil(p, dl, func() bool {
			return c.anyAckCompleted() || c.credits > 0 || c.err != nil ||
				c.peerClosed || c.cleaned
		}) {
			return sock.ErrTimeout
		}
	}
	c.credits--
	c.stallSince = 0
	c.sub.sweepStall(c, false)
	return nil
}

// --- Data Streaming path --------------------------------------------------

// applyDS delivers one in-sequence data-channel message in Data
// Streaming mode: stage payload, recycle the descriptor, account
// credits.
func (c *Conn) applyDS(p *sim.Proc, hdr *header) {
	if c.opts.CommThread {
		// Rejected alternative (Section 5.2): the polling communication
		// thread hands the message to the application thread, costing
		// the measured synchronization latency.
		p.Sleep(commThreadSync)
	}
	if hdr.Piggy > 0 {
		c.sub.PiggybackAcks.Add(int64(hdr.Piggy))
		c.applyGrant(hdr)
	}
	switch hdr.Kind {
	case kindData:
		p.Sleep(streamRecvCost)
		if c.rdShut {
			// CloseRead discards the payload but still recycles the
			// descriptor and returns the credit: the read side is gone,
			// not the flow control the peer's writer depends on.
			c.postDataDesc(p)
			c.pendingCredits++
			c.returnCredits(p)
			break
		}
		c.rcv.Append(hdr.Len, hdr.Obj)
		hdr.Span.Mark("stage", p.Now())
		c.spanQ = append(c.spanQ, stagedSpan{end: c.rcv.End(), span: hdr.Span})
		c.sub.eagerAdd(hdr.Len)
		if c.sub.eagerOver() {
			// Eager pool over budget: withhold the descriptor repost AND
			// the credit return that would ride on it, so the sender
			// stalls on credits instead of the host staging without
			// bound. eagerRelease resumes both as readers consume.
			if c.deferredDesc == 0 {
				c.sub.deferredQ = append(c.sub.deferredQ, c)
			}
			c.deferredDesc++
			c.sub.EagerDeferrals.Inc()
		} else {
			c.postDataDesc(p) // recycle the temp-buffer descriptor
			c.pendingCredits++
			c.returnCredits(p)
		}
	case kindShutdown:
		// The peer's write-side FIN: everything it sent before this point
		// has been applied (the message rides the sequenced data channel),
		// so mark end-of-stream while our own writes keep flowing. Recycle
		// the descriptor this message consumed and acknowledge everything
		// pending at once — ackThresholdNow drops to 1 under peerShut —
		// so a peer lingering on its close sees its credits come home.
		c.peerShut = true
		c.eof = true
		c.flight().Record(p.Now(), "peer-shutdown", "")
		c.postDataDesc(p)
		c.pendingCredits++
		c.returnCredits(p)
		c.Notify()
	case kindClose:
		c.peerClosed = true
		c.eof = true
		c.flight().Record(p.Now(), "peer-close", "")
		c.Notify()
	}
}

// anyDataCompleted reports whether some posted data descriptor finished.
func (c *Conn) anyDataCompleted() bool {
	for _, h := range c.dataHandles {
		if h.Status() != emp.StatusPending {
			return true
		}
	}
	return false
}

// collectDS harvests all completed data descriptors (in whatever order
// they finished), parks their headers by sequence number, and applies
// the in-order prefix.
func (c *Conn) collectDS(p *sim.Proc) {
	for i := 0; i < len(c.dataHandles); {
		h := c.dataHandles[i]
		if h.Status() == emp.StatusPending {
			i++
			continue
		}
		c.dataHandles = append(c.dataHandles[:i], c.dataHandles[i+1:]...)
		switch h.Status() {
		case emp.StatusOK:
			if hdr, ok := h.Message().Data.(*header); ok {
				c.holdback[hdr.Seq] = hdr
			}
		case emp.StatusCancelled:
			// Unposted during cleanup: nothing to deliver.
		default:
			c.fail(sock.ErrReset)
		}
	}
	for {
		hdr, ok := c.holdback[c.rxNext]
		if !ok {
			return
		}
		delete(c.holdback, c.rxNext)
		c.rxNext++
		c.applyDS(p, hdr)
	}
}

// pumpDS drains completed data descriptors; if block, it first waits for
// at least one descriptor to finish, honoring the read deadline (a false
// return means the deadline expired before anything completed).
func (c *Conn) pumpDS(p *sim.Proc, block bool) bool {
	ok := true
	if block {
		ok = c.ready.WaitUntil(p, c.rdl, func() bool {
			return c.anyDataCompleted() || c.err != nil ||
				(len(c.dataHandles) == 0 && c.deferredDesc == 0)
		})
	}
	c.collectDS(p)
	return ok
}

// Read implements sock.Conn.
func (c *Conn) Read(p *sim.Proc, max int) (int, []any, error) {
	p.Sleep(libCall)
	if c.err != nil {
		c.abort(p)
		return 0, nil, c.err
	}
	if c.cleaned {
		return 0, nil, sock.ErrClosed
	}
	if c.rdShut {
		c.eofSeen = true
		return 0, nil, nil // shutdown(SHUT_RD): reads see EOF
	}
	c.lastIO = p.Now()
	if c.opts.Mode == datagram {
		n, objs, err := c.readDG(p, max)
		if n == 0 && err == nil {
			c.eofSeen = true
		}
		return n, objs, err
	}
	c.pollAcks(p)
	for c.rcv.Len() == 0 && !c.eof && c.err == nil {
		if len(c.dataHandles) == 0 && c.deferredDesc == 0 {
			return 0, nil, sock.ErrClosed
		}
		if !c.pumpDS(p, true) {
			c.flight().Record(p.Now(), "deadline", "read")
			return 0, nil, sock.ErrTimeout
		}
	}
	if c.err != nil {
		c.abort(p)
		return 0, nil, c.err
	}
	c.pumpDS(p, false) // opportunistic drain
	if c.rcv.Len() == 0 {
		c.eofSeen = true
		return 0, nil, nil // EOF
	}
	n := c.rcv.Len()
	if n > max {
		n = max
	}
	// The data-streaming copy: temp buffer to user buffer.
	c.sub.Host.Copy(p, n)
	n, objs := c.rcv.Read(n)
	c.popReadSpans(p.Now())
	if !c.cleaned {
		// A teardown during the copy (host drain) already returned the
		// staged bytes to the pool in cleanup.
		c.sub.eagerRelease(p, n)
	}
	return n, objs, nil
}

// Write implements sock.Conn: eager with credit-based flow control in
// Data Streaming mode; direct or rendezvous in Datagram mode.
func (c *Conn) Write(p *sim.Proc, n int, obj any) (int, error) {
	p.Sleep(libCall)
	if c.err != nil {
		c.abort(p)
		return 0, c.err
	}
	if c.closeSent || c.cleaned || c.shutSent {
		return 0, sock.ErrClosed
	}
	if c.peerClosed {
		return 0, sock.ErrClosed
	}
	c.lastIO = p.Now()
	if c.opts.Mode == datagram {
		return c.writeDG(p, n, obj)
	}
	c.pollAcks(p)
	written := 0
	for written < n || (n == 0 && written == 0) {
		chunk := n - written
		if chunk > bufSize {
			chunk = bufSize
		}
		sp := c.sub.Tel.NewSpan("eager", chunk, "write", p.Now())
		if err := c.takeCredit(p); err != nil {
			if c.err != nil {
				c.abort(p)
			}
			return written, err
		}
		piggy := 0
		var grant uint64
		if c.opts.Piggyback && c.pendingCredits > 0 {
			piggy = c.pendingCredits
			c.pendingCredits = 0
			c.sub.PiggybackAcks.Add(int64(piggy))
			c.grantedTotal += uint64(piggy)
			grant = c.grantedTotal
		}
		var o any
		if written+chunk >= n {
			o = obj
		}
		c.sub.MsgsSent.Inc()
		p.Sleep(streamSendCost)
		seq := c.txSeq
		c.txSeq++
		st := c.send(p, c.dataOutTag, headerBytes+chunk,
			&header{Kind: kindData, Piggy: piggy, Grant: grant, Len: chunk, Obj: o, Seq: seq, Span: sp}, c.sendKey)
		if st == emp.StatusNoDescriptors {
			// Descriptor-budget exhaustion is an operation failure, not a
			// connection failure: the message never left, so restore the
			// taken credit (and the piggybacked return) and surface the
			// typed error — the socket stays usable.
			c.credits++
			c.pendingCredits += piggy
			c.grantedTotal -= uint64(piggy)
			c.txSeq--
			return written, emp.ErrNoDescriptors
		}
		if st != emp.StatusOK {
			c.fail(sock.ErrReset)
			c.abort(p)
			return written, c.err
		}
		written += chunk
		if n == 0 {
			break
		}
	}
	return written, nil
}

// Conn implements the optional half-close face.
var _ sock.Closer = (*Conn)(nil)

// shutdownWrite emits the kindShutdown message on the data channel,
// bounded by deadline. In Data Streaming mode the shutdown consumes a
// credit like any data-channel message; in Datagram mode sends are
// synchronous and no credit exists to take.
func (c *Conn) shutdownWrite(p *sim.Proc, deadline sim.Time) error {
	if c.opts.Mode == dataStreaming {
		if err := c.takeCreditDeadline(p, deadline); err != nil {
			return err
		}
	}
	c.shutSent = true
	seq := uint64(0)
	if c.opts.Mode == dataStreaming {
		seq = c.txSeq
		c.txSeq++
	}
	c.flight().Record(p.Now(), "shutdown-sent", "")
	c.sub.Eng.Tracef("substrate", "shutdown %d -> %d", c.sub.addr, c.peer)
	st := c.send(p, c.dataOutTag, headerBytes,
		&header{Kind: kindShutdown, Seq: seq}, emp.KeyNone)
	if st != emp.StatusOK && st != emp.StatusNoDescriptors && c.err == nil {
		c.fail(sock.ErrReset)
		return c.err
	}
	return nil
}

// CloseWrite implements sock.Closer: shutdown(SHUT_WR). The peer drains
// every data message sent before the shutdown (it rides the
// sequence-ordered data channel) and then observes end-of-stream;
// subsequent Writes here return sock.ErrClosed while Reads keep
// draining the reverse direction.
func (c *Conn) CloseWrite(p *sim.Proc) error {
	p.Sleep(libCall)
	if c.err != nil {
		return c.err
	}
	if c.cleaned || c.closeSent {
		return sock.ErrClosed
	}
	if c.shutSent {
		return nil
	}
	if c.peerClosed {
		// Peer already tore down: nothing to notify, but the local write
		// direction is shut all the same.
		c.shutSent = true
		return nil
	}
	return c.shutdownWrite(p, p.Now().Add(closeTimeout))
}

// CloseRead implements sock.Closer: shutdown(SHUT_RD). Local only — the
// peer is not told — but staged bytes are discarded and later arrivals
// are consumed-and-dropped with their credits returned, so a peer
// mid-write is never wedged by our disinterest.
func (c *Conn) CloseRead(p *sim.Proc) error {
	p.Sleep(libCall)
	if c.cleaned || c.closeSent {
		return sock.ErrClosed
	}
	if c.rdShut {
		return nil
	}
	c.rdShut = true
	if c.rcv != nil && c.rcv.Len() > 0 {
		n := c.rcv.Len()
		c.rcv.Read(n)
		c.sub.eagerRelease(p, n)
	}
	c.spanQ = nil // discarded bytes retire their spans unrecorded
	c.dgq = nil
	c.Notify()
	return nil
}

// waitDrained blocks until every credit has come home — proof the peer
// consumed all our data — or the connection resolves another way (peer
// closed, failure) or the deadline passes. Datagram-mode sends are
// synchronous (direct send or completed rendezvous), so a datagram
// connection is drained by construction.
func (c *Conn) waitDrained(p *sim.Proc, deadline sim.Time) bool {
	if c.opts.Mode == datagram {
		return true
	}
	for {
		c.pollAcks(p)
		c.collectDS(p)
		if c.err != nil || c.peerClosed || c.cleaned {
			return true
		}
		if c.credits == c.opts.Credits {
			return true
		}
		if !c.waitControlEvent(p, deadline, func() bool {
			return c.credits == c.opts.Credits || c.anyDataCompleted() || c.cleaned
		}) {
			return false
		}
	}
}

// closeLinger is the draining close: shutdown the write side, wait for
// the credits to come home within the deadline, then run the normal
// Section 5.3 close. If the drain cannot be proven by the deadline the
// connection is aborted and sock.ErrTimeout reported — the caller knows
// delivery of the tail is unconfirmed, and the auditor stays clean
// because abort unposts everything.
func (c *Conn) closeLinger(p *sim.Proc, deadline sim.Time) error {
	if !c.shutSent && c.err == nil && !c.peerClosed {
		// Best effort: a failed shutdown send degrades to the abort
		// outcome below rather than failing the close outright.
		_ = c.shutdownWrite(p, deadline)
	}
	drained := c.waitDrained(p, deadline)
	if !drained && c.err == nil && !c.peerClosed {
		c.sub.LingerExpired.Inc()
		c.flight().Record(p.Now(), "linger-expired", "")
		c.abort(p)
		return sock.ErrTimeout
	}
	return c.closeNow(p)
}

// drainClose is Close via the linger path regardless of Options.Linger,
// bounded by an explicit deadline: the host-wide quiesce path.
func (c *Conn) drainClose(p *sim.Proc, deadline sim.Time) error {
	p.Sleep(libCall)
	if c.cleaned || c.closeSent {
		return nil
	}
	return c.closeLinger(p, deadline)
}

// Close implements sock.Conn: the Section 5.3 protocol — send the
// "closed" message to the connected node, then clean up all associated
// descriptors and leave the active-socket table. The close is one-way:
// the peer sees end-of-stream when it reads the message; data it still
// has in flight toward us is abandoned (dropped at the NIC and retried
// until the sender NIC gives up), as with a reset in TCP. With
// Options.Linger set, Close first drains via closeLinger so the tail is
// confirmed delivered before the closed message goes out.
func (c *Conn) Close(p *sim.Proc) error {
	p.Sleep(libCall)
	if c.cleaned || c.closeSent {
		return nil
	}
	if c.opts.Linger > 0 {
		return c.closeLinger(p, p.Now().Add(c.opts.Linger))
	}
	return c.closeNow(p)
}

// closeNow is the immediate Section 5.3 close (no drain).
func (c *Conn) closeNow(p *sim.Proc) error {
	if c.cleaned || c.closeSent {
		return nil
	}
	c.sub.ClosesSent.Inc()
	// Drain anything already delivered so an in-flight peer close is
	// observed (avoids sending a close to a peer that already cleaned
	// up).
	if c.opts.Mode == dataStreaming {
		c.collectDS(p)
	} else {
		c.drainDGControl(p)
	}
	if !c.peerClosed && c.err == nil {
		// A failed connection skips the close message — the peer is
		// unreachable and the send would only burn a retry budget.
		sendClose := true
		if c.opts.Mode == dataStreaming {
			if err := c.takeCredit(p); err != nil {
				sendClose = false
			}
		}
		if sendClose {
			c.closeSent = true
			seq := c.txSeq
			c.txSeq++
			c.flight().Record(p.Now(), "close-sent", "")
			c.sub.Eng.Tracef("substrate", "close %d -> %d", c.sub.addr, c.peer)
			c.send(p, c.dataOutTag, headerBytes,
				&header{Kind: kindClose, Seq: seq}, emp.KeyNone)
		}
	}
	c.cleanup(p)
	return nil
}

// cleanup unposts every outstanding descriptor and releases the
// connection's tags (EMP resource management, Section 5.3).
func (c *Conn) cleanup(p *sim.Proc) {
	if c.cleaned {
		return
	}
	c.cleaned = true
	// Copy the handle lists and detach them before the first blocking
	// unpost: Unpost parks in a mailbox round trip, and a reader woken
	// mid-teardown runs collectDS, whose removals shift the shared
	// backing array under a live range — skipping one handle (leaked
	// forever) and re-visiting a stale tail slot.
	dataHandles := append([]*emp.RecvHandle(nil), c.dataHandles...)
	ackHandles := append([]*emp.RecvHandle(nil), c.ackHandles...)
	c.dataHandles = nil
	c.ackHandles = nil
	for _, h := range dataHandles {
		c.sub.EP.Unpost(p, h)
	}
	for _, h := range ackHandles {
		c.sub.EP.Unpost(p, h)
	}
	if h := c.dgPending; h != nil {
		c.dgPending = nil
		c.sub.EP.Unpost(p, h)
	}
	// Return staged-but-unread bytes to the eager pool and drop any
	// withheld reposts: a closing connection releases its share of the
	// budget so deferred peers can resume.
	c.deferredDesc = 0
	c.spanQ = nil
	if c.rcv != nil && c.rcv.Len() > 0 {
		c.sub.eagerRelease(p, c.rcv.Len())
	}
	c.sub.active.remove(c)
	c.sub.sweepForget(c)
	delete(c.sub.chans, chanKey{c.peer, c.dataInTag})
	delete(c.sub.chans, chanKey{c.peer, c.ackInTag})
	c.sub.purgeStaleUQ()
	if c.isClient {
		c.sub.freeTag(c.dataInTag)
		c.sub.freeTag(c.ackInTag)
		c.sub.freeTag(c.dataOutTag)
		c.sub.freeTag(c.ackOutTag)
	}
	c.Notify()
}

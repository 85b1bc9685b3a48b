package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/emp"
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// listenTagBase is the tag-space region reserved for per-port connection
// request messages (the paper distinguishes connection messages from
// data messages via EMP tag matching). Ports must stay below 0x4000.
const listenTagBase emp.Tag = 0x4000

// maxListenPort bounds listener port numbers so they fit the tag space.
const maxListenPort = 0x3FFF

func listenTag(port int) emp.Tag { return listenTagBase | emp.Tag(port) }

// Substrate is one host's user-level sockets instance over EMP; it
// implements sock.Network. All data-path operations run entirely in user
// space — no system calls except the (cached) pin-and-translate of
// buffer registration.
type Substrate struct {
	Eng  *sim.Engine
	Host *kernel.Host
	EP   *emp.Endpoint
	Opts Options

	addr      ethernet.Addr
	listeners map[int]*listener
	// active is the paper's static table of active sockets (Section
	// 5.3): sockets engaged in communication, excluding listeners.
	// Sharded, with (peer, outbound-tag) and by-peer indexes — see
	// table.go.
	active *connTable
	// sweepMark and sweepStalled are the credit-reconciliation sweep's
	// attention sets (nil when the sweep is disabled): sockets whose
	// Notify fired since the last pass — the superset of sockets with
	// ack-channel arrivals to harvest — and sockets currently inside a
	// credit stall. Each pass visits their union instead of the whole
	// active table; a socket outside both sets would have charged
	// nothing, so sweep timing is unchanged.
	sweepMark    map[*Conn]struct{}
	sweepStalled map[*Conn]struct{}

	tagNext  emp.Tag
	tagInUse map[emp.Tag]bool
	keyNext  emp.BufKey
	portNext int
	// chans routes each live (peer, tag) receive channel to its
	// connection: unexpected-queue arrivals wake only that connection's
	// waiters, and stale entries (control messages that raced a close)
	// can be purged.
	chans map[chanKey]*Conn
	// awaiting registers the channels announced by completed but
	// not-yet-accepted connection requests sitting in listener backlogs:
	// early data arrivals for those channels must survive staleness
	// purges until Accept posts the connection's descriptors. Keyed the
	// same way as chans; filled by the backlog descriptors' owners
	// (backlogPost), consumed by Accept, cleared by listener.Close.
	awaiting map[chanKey]*listener
	dead     bool
	// draining is set by Drain: new connects are refused, new listens
	// rejected, and arriving connection requests answered with the
	// substrate's refusal message while the live sockets drain out.
	draining bool

	// Eager-pool accounting (Options.EagerBudget): bytes staged in Data
	// Streaming receive buffers across all connections, and the FIFO of
	// connections whose descriptor reposts are deferred while the pool
	// is over budget.
	eagerBytes int `metric:"eager_bytes"`
	eagerHW    int `metric:"eager_high_water"`
	deferredQ  []*Conn

	// Stats, published under layer "core" by New.
	ConnectsSent   sim.Counter `metric:"connects_sent"`
	ConnsAccepted  sim.Counter `metric:"conns_accepted"`
	MsgsSent       sim.Counter `metric:"msgs_sent"`
	ExplicitAcks   sim.Counter `metric:"explicit_acks"`
	PiggybackAcks  sim.Counter `metric:"piggyback_acks"`
	CreditStalls   sim.Counter `metric:"credit_stalls"`
	RendezvousOps  sim.Counter `metric:"rendezvous_ops"`
	ClosesSent     sim.Counter `metric:"closes_sent"`
	DGramTruncated sim.Counter `metric:"dgram_truncated"`
	ConnsFailed    sim.Counter `metric:"conns_failed"`
	KeepalivesSent sim.Counter `metric:"keepalives_sent"`
	DialRetries    sim.Counter `metric:"dial_retries"`
	RefusedConns   sim.Counter `metric:"refused_conns"`
	EagerDeferrals sim.Counter `metric:"eager_deferrals"`
	// LingerExpired counts lingering closes that hit their deadline and
	// fell back to the abort path (tail delivery unconfirmed).
	LingerExpired sim.Counter `metric:"linger_expired"`
	// CreditSyncs counts credit-reconciliation probes sent on behalf of
	// writers stalled past creditSyncAfter.
	CreditSyncs sim.Counter `metric:"credit_syncs"`

	// Tel is the host's telemetry registry: latency-decomposition
	// histograms and per-connection flight recorders feed it.
	Tel *telemetry.Registry
}

// New creates a substrate on the given host and NIC. The NIC must be
// attached to a switch. The EMP endpoint is configured with an
// unexpected queue sized for the substrate's control traffic plus the
// early-data race of asynchronous connects.
//
// The substrate's tagged counters publish on tel under layer "core" and
// the EMP endpoint's under "emp", and its connections feed latency spans
// and flight recorders there. A substrate rebuilt after a crash–restart
// is handed the node registry that survived the crash; its fresh
// counters replace the dead incarnation's.
func New(e *sim.Engine, host *kernel.Host, n *nic.NIC, tel *telemetry.Registry, opts Options) *Substrate {
	opts = opts.normalize()
	epCfg := emp.DefaultEndpointConfig()
	epCfg.UnexpectedSlots = 4*opts.Credits + 64
	epCfg.UnexpectedBytes = opts.UQBytes
	epCfg.BootEpoch = opts.BootEpoch
	if opts.DescriptorBudget > 0 {
		epCfg.MaxDescriptors = opts.DescriptorBudget
	}
	s := &Substrate{
		Eng:       e,
		Host:      host,
		EP:        emp.NewEndpoint(e, host, n, epCfg),
		Opts:      opts,
		addr:      n.Addr(),
		listeners: make(map[int]*listener),
		active:    newConnTable(),
		tagNext:   0x0100,
		tagInUse:  make(map[emp.Tag]bool),
		keyNext:   1000,
		portNext:  32768,
		chans:     make(map[chanKey]*Conn),
		awaiting:  make(map[chanKey]*listener),
		Tel:       tel,
	}
	tel.ReplaceSource("core", func() []telemetry.Stat {
		return append(telemetry.Fields(s),
			telemetry.Stat{Name: "active_sockets", Value: int64(s.active.size())})
	})
	tel.ReplaceSource("emp", func() []telemetry.Stat {
		return append(telemetry.Fields(&s.EP.Counters),
			telemetry.Stat{Name: "uq_entries", Value: int64(s.EP.UnexpectedQueued())})
	})
	s.EP.SetUnexpectedEvictNotify(func(src ethernet.Addr, tag emp.Tag, length int) {
		if c, ok := s.chans[chanKey{src, tag}]; ok {
			c.flight().Recordf(s.Eng.Now(), "uq-evict", "tag=%d len=%d", tag, length)
		}
	})
	// EMP reliability events (retransmit streaks, NACKs, exhausted retry
	// budgets) name the destination and the outbound tag; route each to
	// the one connection that sends on that channel so its flight ring
	// tells the whole story of a wedged path. A send that exhausts its
	// retry budget also means the peer's NIC is gone (crashed or
	// partitioned past the reliability horizon): one host notification
	// later, every connection to that peer fails, whatever its tag,
	// because rendezvous transfers use dynamically allocated tags.
	s.EP.SetEventNotify(func(ev emp.ProtoEvent) {
		if c := s.connByOutbound(ev.Dst, ev.Tag); c != nil {
			c.flight().Recordf(s.Eng.Now(), ev.Kind, "tag=%#x retries=%d frags=%d", ev.Tag, ev.Retries, ev.Frags)
		}
		if ev.Kind == "emp-send-failed" {
			dst := ev.Dst
			e.After(nic.HostNotify, func() { s.peerUnreachable(dst) })
		}
	})
	// Control messages (credit acks, close acks, connect replies) and
	// Datagram-mode early arrivals surface through the unexpected
	// queue; the arrival is routed to the one connection or listener the
	// message is addressed to, so only its waiters and registered
	// pollers wake — not every blocked proc on the host.
	s.EP.SetUnexpectedRoute(func(src ethernet.Addr, tag emp.Tag) {
		if tag >= listenTagBase {
			l, ok := s.listeners[int(tag&^listenTagBase)]
			if !ok {
				// Nobody listens on this port. There is no kernel to send a
				// reset on EMP — the request parks in the unexpected queue
				// until the dialer's own timeout or a purge reclaims it. A
				// draining host answers explicitly so concurrent dialers
				// fail fast with sock.ErrRefused instead of timing out.
				if s.draining {
					s.refuseParked(src, tag)
				}
				return
			}
			l.Notify()
			// Backlog overflow: requests beyond the listener's backlog
			// descriptors park here. A slack of one backlog's worth covers
			// accept/replenish races; anything past it is refused — the
			// substrate's RST — so a connect flood degrades to
			// sock.ErrRefused at the dialers and the queue stays bounded.
			if s.EP.CountUnexpected(emp.AnySource, tag) > l.backlog {
				s.refuseParked(src, tag)
			}
			return
		}
		if c, ok := s.chans[chanKey{src, tag}]; ok {
			c.Notify()
		}
	})
	// Connection-setup requests are the one message class the unexpected
	// queue's byte-cap eviction must never drop: the sender's NIC has
	// already acknowledged them, and the refusal policy above bounds them
	// explicitly.
	s.EP.SetUnexpectedSetupClass(func(tag emp.Tag) bool { return tag >= listenTagBase })
	if opts.Recovery {
		s.sweepMark = make(map[*Conn]struct{})
		s.sweepStalled = make(map[*Conn]struct{})
		e.Spawn("credit-sweep", s.creditSweep)
	}
	return s
}

// sweepNote marks a socket for the next credit-sweep pass; connection
// Notify calls land here, so any socket with an unharvested ack-channel
// arrival is marked. Event context, no simulated time.
func (s *Substrate) sweepNote(c *Conn) {
	if s.sweepMark != nil && !c.cleaned {
		s.sweepMark[c] = struct{}{}
	}
}

// sweepStall tracks entry to and exit from a credit stall for the
// sweep's probe half.
func (s *Substrate) sweepStall(c *Conn, stalled bool) {
	if s.sweepStalled == nil {
		return
	}
	if stalled {
		s.sweepStalled[c] = struct{}{}
	} else {
		delete(s.sweepStalled, c)
	}
}

// sweepForget drops a closing socket from both attention sets.
func (s *Substrate) sweepForget(c *Conn) {
	if s.sweepMark != nil {
		delete(s.sweepMark, c)
		delete(s.sweepStalled, c)
	}
}

// sweepPending reports whether the credit sweep's next tick has work.
func (s *Substrate) sweepPending() bool {
	return s.dead || len(s.sweepMark) > 0 || len(s.sweepStalled) > 0
}

// creditSweep is the credit-reconciliation process (enabled by
// Options.Recovery): every creditSyncAfter it visits, in deterministic
// order, the sockets needing attention — those notified since the last
// pass (harvesting ack-channel arrivals whose owners are blocked
// elsewhere) and those inside a credit stall (probing peers on behalf
// of writers stalled past the threshold). The audit can detect credit
// drift from a lost grant; this sweep is what repairs it. Sockets in
// neither set have nothing to harvest and nothing to probe, so
// skipping them charges the same (zero) simulated time the old
// full-table walk charged for them. With both sets empty a tick does
// nothing, so the sweep sleeps on an idle timer and an idle substrate
// does not keep a run going; a dead one still has the tick that ends
// the process.
func (s *Substrate) creditSweep(p *sim.Proc) {
	pending := s.sweepPending
	var conns []*Conn // reused across passes
	for {
		p.SleepIdle(creditSyncAfter, pending)
		if s.dead {
			return
		}
		if len(s.sweepMark) == 0 && len(s.sweepStalled) == 0 {
			continue
		}
		for c := range s.sweepMark {
			conns = append(conns, c)
		}
		for c := range s.sweepStalled {
			if _, marked := s.sweepMark[c]; !marked {
				conns = append(conns, c)
			}
		}
		// Marks consumed; arrivals during the pass re-mark for the next.
		for c := range s.sweepMark {
			delete(s.sweepMark, c)
		}
		sortConns(conns)
		for _, c := range conns {
			c.creditSweepTick(p)
		}
		// Cleared so the idle sweep pins no closed connection.
		clear(conns)
		conns = conns[:0]
	}
}

// connByOutbound finds the active connection that sends to dst on tag.
// Outbound tags are allocated by a single dialer per peer, so at most
// one connection matches; the (peer, tag) index resolves it in O(1)
// regardless of the active table's size.
func (s *Substrate) connByOutbound(dst ethernet.Addr, tag emp.Tag) *Conn {
	return s.active.lookupOutbound(dst, tag)
}

// refuseParked claims one parked connection request for (src, tag) from
// the unexpected queue and sends the refusal message. Runs from event
// context (the unexpected-queue route), so the claim-and-send runs in a
// short-lived spawned process; if a replenished backlog descriptor wins
// the race and claims the request first, the claim misses and nothing is
// refused.
func (s *Substrate) refuseParked(src ethernet.Addr, tag emp.Tag) {
	if s.dead {
		return
	}
	s.Eng.Spawn("refuse", func(p *sim.Proc) {
		if s.dead {
			return
		}
		m, ok := s.EP.PollUnexpected(p, src, tag, connReqBytes)
		if !ok {
			return
		}
		hdr, ok := m.Data.(*header)
		if !ok || hdr.Kind != kindConnReq || hdr.Req == nil {
			return
		}
		s.refuseReq(p, hdr.Req)
	})
}

// refuseReq sends the substrate's connection refusal (its RST) to the
// dialer's acknowledgment channel.
func (s *Substrate) refuseReq(p *sim.Proc, req *connRequest) {
	s.RefusedConns.Inc()
	s.Eng.Tracef("substrate", "refuse %d <- %d:%d", s.addr, req.ClientAddr, req.ClientPort)
	s.EP.PostSend(p, req.ClientAddr, req.ClientAckTag, headerBytes,
		&header{Kind: kindConnRefused}, emp.KeyNone)
}

// noteAwaiting registers the receive channels announced by the
// connection request that completed backlog descriptor h, if any.
func (s *Substrate) noteAwaiting(l *listener, h *emp.RecvHandle) {
	if h.Status() != emp.StatusOK {
		return
	}
	if hdr, ok := h.Message().Data.(*header); ok && hdr.Kind == kindConnReq && hdr.Req != nil {
		s.awaiting[chanKey{hdr.Req.ClientAddr, hdr.Req.ServerDataTag}] = l
		s.awaiting[chanKey{hdr.Req.ClientAddr, hdr.Req.ServerAckTag}] = l
	}
}

// doneAwaiting drops a request's channels from the awaiting-accept
// registry (the request was accepted or refused).
func (s *Substrate) doneAwaiting(req *connRequest) {
	delete(s.awaiting, chanKey{req.ClientAddr, req.ServerDataTag})
	delete(s.awaiting, chanKey{req.ClientAddr, req.ServerAckTag})
}

// dropAwaiting removes every registry entry belonging to a closing
// listener.
func (s *Substrate) dropAwaiting(l *listener) {
	for k, owner := range s.awaiting {
		if owner == l {
			delete(s.awaiting, k)
		}
	}
}

// --- Eager-pool accounting (Options.EagerBudget) -------------------------

// eagerOver reports whether the staged-byte pool is over budget.
func (s *Substrate) eagerOver() bool {
	return s.Opts.EagerBudget > 0 && s.eagerBytes > s.Opts.EagerBudget
}

// eagerAdd accounts newly staged receive bytes.
func (s *Substrate) eagerAdd(n int) {
	s.eagerBytes += n
	if s.eagerBytes > s.eagerHW {
		s.eagerHW = s.eagerBytes
	}
}

// eagerRelease returns consumed bytes to the pool and reposts deferred
// temp-buffer descriptors (with their deferred credit returns) while the
// pool is back under budget, oldest-stalled connection first.
func (s *Substrate) eagerRelease(p *sim.Proc, n int) {
	s.eagerBytes -= n
	if s.eagerBytes < 0 {
		panic("core: eager-pool accounting underflow")
	}
	for !s.eagerOver() && len(s.deferredQ) > 0 {
		c := s.deferredQ[0]
		if c.cleaned || c.err != nil || c.deferredDesc == 0 {
			c.deferredDesc = 0
			s.deferredQ = s.deferredQ[1:]
			continue
		}
		c.deferredDesc--
		if c.deferredDesc == 0 {
			s.deferredQ = s.deferredQ[1:]
		}
		c.postDataDesc(p)
		c.pendingCredits++
		c.returnCredits(p)
	}
}

// peerUnreachable fails every active connection to dst with
// sock.ErrReset, in (peer, localPort, remotePort) order, waking blocked
// Read/Write callers. Runs in event context.
func (s *Substrate) peerUnreachable(dst ethernet.Addr) {
	var failed []*Conn
	s.active.peerConns(dst, func(c *Conn) { failed = append(failed, c) })
	sortConns(failed)
	for _, c := range failed {
		c.fail(sock.ErrReset)
	}
}

// Kill models this host dying mid-run: every active connection fails,
// every listener closes, and the EMP endpoint (with its NIC) stops.
// Blocked callers wake with errors; peers discover the death through
// their own retry budgets or keepalive probes.
func (s *Substrate) Kill() {
	if s.dead {
		return
	}
	s.dead = true
	for _, c := range s.active.snapshotSorted() {
		c.fail(sock.ErrReset)
	}
	dying := s.listeners
	s.listeners = make(map[int]*listener)
	for _, l := range dying {
		l.closed = true
	}
	// Killing the endpoint cancels every posted descriptor, so blocked
	// Accept/WaitRecv callers wake with cancellation statuses.
	s.EP.Kill()
	for _, l := range dying {
		l.Notify()
	}
}

// Dead reports whether Kill has been called.
func (s *Substrate) Dead() bool { return s.dead }

// Addr implements sock.Network.
func (s *Substrate) Addr() sock.Addr { return s.addr }

var _ sock.Network = (*Substrate)(nil)

// ActiveSockets reports the active-socket table size (Section 5.3).
func (s *Substrate) ActiveSockets() int { return s.active.size() }

// VisitConns calls fn for every active socket in deterministic (peer,
// localPort, remotePort) order with its flight-recorder id, fabric
// endpoints, and ECMP flow label (the outbound data tag EMP stamps on
// the socket's data frames) — the hook the cluster layer uses to
// attribute fabric route changes to connections.
func (s *Substrate) VisitConns(fn func(id string, local, peer ethernet.Addr, flow uint32)) {
	for _, c := range s.active.snapshotSorted() {
		fn(c.id, s.addr, c.peer, uint32(c.dataOutTag))
	}
}

// allocTag reserves a dynamic tag unique among this substrate's live
// allocations (tag matching at the peer is per-source, so uniqueness per
// allocator suffices).
func (s *Substrate) allocTag() emp.Tag {
	for {
		t := s.tagNext
		s.tagNext++
		if s.tagNext >= listenTagBase {
			s.tagNext = 0x0100
		}
		if !s.tagInUse[t] {
			s.tagInUse[t] = true
			return t
		}
	}
}

func (s *Substrate) freeTag(t emp.Tag) { delete(s.tagInUse, t) }

// chanKey identifies one live receive channel.
type chanKey struct {
	src ethernet.Addr
	tag emp.Tag
}

// purgeStaleUQ discards unexpected-queue messages addressed to channels
// that no longer exist (e.g. a close message that arrived after this
// side had already cleaned up), freeing their NIC slots. Called on
// connection churn.
func (s *Substrate) purgeStaleUQ() {
	parked := s.parkedRequests()
	s.EP.PurgeUnexpected(func(src ethernet.Addr, tag emp.Tag) bool {
		return s.uqLive(parked, src, tag)
	})
}

// parkedRequests reports the peers whose connection requests to a live
// listener are parked in the unexpected queue (nil if none), for uqLive.
func (s *Substrate) parkedRequests() map[ethernet.Addr]bool {
	var parked map[ethernet.Addr]bool
	s.EP.VisitUnexpected(func(m emp.Message) {
		if m.Tag < listenTagBase {
			return
		}
		if _, ok := s.listeners[int(m.Tag&^listenTagBase)]; ok {
			if parked == nil {
				parked = make(map[ethernet.Addr]bool)
			}
			parked[m.Src] = true
		}
	})
	return parked
}

// uqLive is the unexpected-queue liveness test, shared by the purge and
// the audit so the audit flags exactly what the purge drops. A parked
// message is live when it is addressed to a live listener's port, a
// live channel, a channel awaiting accept, or is early data from a peer
// whose connection request is itself still parked (parked, from
// parkedRequests). Each test is a map lookup.
func (s *Substrate) uqLive(parked map[ethernet.Addr]bool, src ethernet.Addr, tag emp.Tag) bool {
	if tag >= listenTagBase {
		_, ok := s.listeners[int(tag&^listenTagBase)]
		return ok
	}
	if _, ok := s.chans[chanKey{src, tag}]; ok {
		return true
	}
	// Not stale if the channel is merely early: a data message can
	// outrun its own connection's Accept (the paper's one-message setup
	// lets the client transmit immediately), so a channel announced by a
	// still-queued connection request — or from a peer whose request
	// itself is still parked here — will exist as soon as Accept runs
	// and must survive the purge.
	if _, ok := s.awaiting[chanKey{src, tag}]; ok {
		return true
	}
	return parked[src]
}

// allocKey reserves a translation-cache key for a registered buffer
// area.
func (s *Substrate) allocKey() emp.BufKey {
	s.keyNext++
	return s.keyNext
}

// Listen implements sock.Network: pre-post backlog descriptors on the
// port's connection tag (the paper's data-message-exchange connection
// management).
func (s *Substrate) Listen(p *sim.Proc, port, backlog int) (sock.Listener, error) {
	p.Sleep(libCall)
	if s.dead || s.draining {
		return nil, sock.ErrClosed
	}
	if port == 0 {
		port = s.ephemeralPort()
	}
	if port < 0 || port > maxListenPort {
		return nil, fmt.Errorf("core: port %d outside the substrate's tag space: %w", port, sock.ErrInUse)
	}
	if _, ok := s.listeners[port]; ok {
		return nil, sock.ErrInUse
	}
	if backlog < 1 {
		backlog = 1
	}
	l := &listener{sub: s, port: port, backlog: backlog}
	for i := 0; i < backlog; i++ {
		l.post(p)
	}
	s.listeners[port] = l
	return l, nil
}

// ephemeralPort allocates dialer-side ports. They ride inside
// connection requests to distinguish connections from the same client
// host and never become listen tags, so they live above the listener
// tag space and wrap within (32768, 65535]. (The old wrap clamped every
// allocation to 16384, so all dialers from one host shared a port —
// harmless for tag-based demux but ambiguous everywhere ports name
// connections, e.g. telemetry connection ids.)
func (s *Substrate) ephemeralPort() int {
	s.portNext++
	if s.portNext > 65535 {
		s.portNext = 32769
	}
	return s.portNext
}

// Dial implements sock.Network: allocate the connection's tags, post our
// receive descriptors, and send the connection request message. By
// default (SyncConnect false) Dial returns immediately after the request
// is sent — the paper's optimization that reduces connection time to a
// single message and lets data flow at once, with EMP reliability (or
// the unexpected queue) covering the race with the server's accept.
func (s *Substrate) Dial(p *sim.Proc, addr sock.Addr, port int) (sock.Conn, error) {
	p.Sleep(libCall)
	if s.draining {
		return nil, sock.ErrRefused
	}
	// Under Recovery, dialDeadline bounds the whole connect (every
	// attempt plus the backoff between attempts) and the backoff is
	// jittered; otherwise the retry budget alone bounds it.
	pol := retry.Policy{Max: s.Opts.DialRetries, Base: dialBackoff, Factor: 2}
	var deadline sim.Time
	var rnd *sim.Rand
	if s.Opts.Recovery {
		deadline = p.Now().Add(dialDeadline)
		pol.Jitter, rnd = dialJitter, s.Eng.Rand()
	}
	loop := retry.New(pol, rnd, deadline)
	for {
		c, err := s.dialOnce(p, addr, port, deadline)
		if err == nil {
			return c, nil
		}
		// Retry transient failures (the request or reply lost past the
		// reliability horizon) with exponential backoff; give up on
		// anything else or once the budget is spent.
		if err != sock.ErrTimeout && err != sock.ErrReset {
			return nil, err
		}
		wait, ok := loop.Next(p.Now())
		if !ok {
			if loop.Attempt() >= s.Opts.DialRetries {
				return nil, err
			}
			return nil, sock.ErrTimeout
		}
		if deadline != 0 && p.Now().Add(wait) >= deadline {
			return nil, sock.ErrTimeout
		}
		s.DialRetries.Inc()
		s.Eng.Tracef("substrate", "connect %d -> %d:%d retry %d after %v", s.addr, addr, port, loop.Attempt(), wait)
		p.Sleep(wait)
	}
}

// dialOnce runs one connection attempt; a non-zero deadline tightens
// the synchronous-connect wait below the closeTimeout bound.
func (s *Substrate) dialOnce(p *sim.Proc, addr sock.Addr, port int, deadline sim.Time) (sock.Conn, error) {
	if s.dead {
		return nil, sock.ErrClosed
	}
	s.ConnectsSent.Inc()
	req := &connRequest{
		ClientAddr:    s.addr,
		ClientPort:    s.ephemeralPort(),
		ServerPort:    port,
		ServerDataTag: s.allocTag(),
		ServerAckTag:  s.allocTag(),
		ClientDataTag: s.allocTag(),
		ClientAckTag:  s.allocTag(),
		Mode:          s.Opts.Mode,
		Credits:       s.Opts.Credits,
		DelayedAcks:   s.Opts.DelayedAcks,
		UQAcks:        s.Opts.UQAcks,
		Piggyback:     s.Opts.Piggyback,
		SyncConnect:   s.Opts.SyncConnect,
		Keepalive:     s.Opts.Recovery,
	}
	c := newConn(s, addr, req, true)
	c.postInitialDescriptors(p)
	s.Eng.Tracef("substrate", "connect %d -> %d:%d (tags d=%d a=%d)", s.addr, addr, port, req.ServerDataTag, req.ServerAckTag)
	h := s.EP.PostSend(p, addr, listenTag(port), connReqBytes,
		&header{Kind: kindConnReq, Req: req}, emp.KeyNone)
	// Bound the local-completion wait by the dial deadline, if any:
	// against a wedged firmware the request never drains, and a dialer
	// that parks here unbounded can neither time out nor fail over.
	h.SetNotify(c)
	c.ready.WaitUntil(p, deadline, func() bool { return h.Status() != emp.StatusPending })
	switch h.Status() {
	case emp.StatusOK:
	case emp.StatusPending:
		// Still queued behind the wedge; reclaim happens off to the
		// side (abort spawns it) so the dialer is free to fail over.
		c.abort(p)
		return nil, sock.ErrTimeout
	default:
		c.abort(p)
		return nil, sock.ErrRefused
	}
	if s.Opts.SyncConnect {
		dl := p.Now().Add(closeTimeout)
		if deadline != 0 && deadline < dl {
			dl = deadline
		}
		for !c.connReplied && c.err == nil {
			if !c.waitAckEvent(p, dl) {
				c.abort(p)
				return nil, sock.ErrTimeout
			}
			c.pollAcks(p)
		}
		if c.err != nil {
			err := c.err
			c.abort(p)
			return nil, err
		}
	}
	return c, nil
}

// Drain quiesces the host: refuse new connects (sock.ErrRefused at the
// dialers), close every listener, drain every active connection through
// the linger path bounded by deadline, and finish with a mandatory
// resource audit. A connection that cannot prove its drain by the
// deadline is aborted — "used or unposted" holds on both outcomes — so
// Drain always terminates and the audit must come back clean.
func (s *Substrate) Drain(p *sim.Proc, deadline sim.Time) error {
	p.Sleep(libCall)
	if s.dead {
		return nil
	}
	s.draining = true
	ls := make([]*listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].port < ls[j].port })
	for _, l := range ls {
		l.Close(p)
	}
	// Snapshot and order the active table: map iteration order must not
	// leak into simulated time.
	for _, c := range s.active.snapshotSorted() {
		c.drainClose(p, deadline)
	}
	s.purgeStaleUQ()
	var findings []string
	s.AuditResources(func(kind, detail string) {
		findings = append(findings, kind+": "+detail)
	})
	if len(findings) > 0 {
		return fmt.Errorf("core: post-drain audit: %s", strings.Join(findings, "; "))
	}
	return nil
}

// PurgeStale discards unexpected-queue messages addressed to channels
// that no longer exist (exported for fault-injection tests asserting
// zero resource leaks after connection churn and failures).
func (s *Substrate) PurgeStale() { s.purgeStaleUQ() }

// AuditResources walks this substrate's resource pools and reports every
// invariant violation through add — the host side of the descriptor-leak
// auditor (package audit). It is meant to run at quiescence (no blocked
// reads or in-flight operations, stale UQ entries purged): transient
// descriptors held by a blocked proc would otherwise be reported as
// orphans. The §5.3 contract it checks: every posted descriptor is owned
// by a live socket, every staged byte is attributable, credit counters
// stay within their windows, and nothing addressed to a dead channel
// lingers in the unexpected queue.
func (s *Substrate) AuditResources(add func(kind, detail string)) {
	if s.dead {
		// A killed endpoint cancelled every descriptor and cleared its
		// queues; only gauge drift is worth checking.
		if n := s.EP.DescriptorsInUse(); n != 0 {
			add("desc-gauge", fmt.Sprintf("dead substrate still accounts %d descriptors", n))
		}
		return
	}
	// Every posted receive descriptor must be owned by a live connection
	// or listener ("used or unposted", Section 5.3).
	owned := make(map[*emp.RecvHandle]bool)
	s.active.forEach(func(c *Conn) {
		for _, h := range c.dataHandles {
			owned[h] = true
		}
		for _, h := range c.ackHandles {
			owned[h] = true
		}
	})
	for _, l := range s.listeners {
		for _, h := range l.handles {
			owned[h] = true
		}
	}
	posted := s.EP.PostedRecvs()
	for _, h := range posted {
		if !owned[h] {
			src, tag := h.Match()
			add("orphan-descriptor", fmt.Sprintf("posted receive (src %v, tag %#x) owned by no socket", src, tag))
		}
	}
	// Connection-table hygiene and credit-window bounds.
	staged := 0
	s.active.forEach(func(c *Conn) {
		if c.cleaned {
			add("cleaned-conn", fmt.Sprintf("conn %d:%d -> %d:%d cleaned up but still in the active table",
				s.addr, c.localPort, c.peer, c.remotePort))
		}
		if c.closeSent && !c.cleaned {
			add("half-closed", fmt.Sprintf("conn %d:%d -> %d:%d sent its closed message but never cleaned up",
				s.addr, c.localPort, c.peer, c.remotePort))
		}
		if c.opts.Mode != dataStreaming {
			return
		}
		if c.credits < 0 || c.credits > c.opts.Credits {
			add("credit-bounds", fmt.Sprintf("conn %d:%d -> %d:%d holds %d send credits (window %d)",
				s.addr, c.localPort, c.peer, c.remotePort, c.credits, c.opts.Credits))
		}
		if c.pendingCredits < 0 || c.pendingCredits > c.opts.Credits {
			add("credit-bounds", fmt.Sprintf("conn %d:%d -> %d:%d owes %d pending credits (window %d)",
				s.addr, c.localPort, c.peer, c.remotePort, c.pendingCredits, c.opts.Credits))
		}
		if c.deferredDesc < 0 || c.deferredDesc > c.opts.Credits {
			add("eager-deferral", fmt.Sprintf("conn %d:%d -> %d:%d defers %d reposts (window %d)",
				s.addr, c.localPort, c.peer, c.remotePort, c.deferredDesc, c.opts.Credits))
		}
		if c.rcv != nil {
			staged += c.rcv.Len()
		}
	})
	// The eager-pool gauge must equal the staged bytes it claims to track.
	if staged != s.eagerBytes {
		add("eager-gauge", fmt.Sprintf("eager pool accounts %d bytes but connections stage %d", s.eagerBytes, staged))
	}
	// The descriptor gauge counts posted receives plus live send records;
	// it can never be smaller than the receives alone.
	if n := s.EP.DescriptorsInUse(); n < len(posted) {
		add("desc-gauge", fmt.Sprintf("endpoint accounts %d descriptors but %d receives are posted", n, len(posted)))
	}
	// Unexpected-queue entries must be addressed to something that still
	// exists.
	parked := s.parkedRequests()
	s.EP.VisitUnexpected(func(m emp.Message) {
		switch {
		case s.uqLive(parked, m.Src, m.Tag):
		case m.Tag >= listenTagBase:
			add("uq-stale", fmt.Sprintf("parked request from %v for port %d, which has no listener", m.Src, int(m.Tag&^listenTagBase)))
		default:
			add("uq-stale", fmt.Sprintf("%d parked bytes from %v on tag %#x, addressed to no live channel", m.Len, m.Src, m.Tag))
		}
	})
}

// listener is a substrate passive socket: backlog pre-posted connection
// request descriptors, FIFO accepted.
type listener struct {
	sub     *Substrate
	port    int
	backlog int
	handles []*emp.RecvHandle
	closed  bool

	src sock.NoteSource // registered pollers
}

var _ sock.Listener = (*listener)(nil)
var _ sock.Pollable = (*listener)(nil)

// Notify wakes this listener's registered pollers; EMP completions on
// backlog descriptors and routed unexpected-queue arrivals land here
// instead of broadcasting host-wide.
func (l *listener) Notify() {
	l.src.Fire(sock.PollIn | sock.PollErr)
}

// backlogPost owns one backlog descriptor. Backlog descriptors can
// complete out of post order, so each carries its own handle.
type backlogPost struct {
	l *listener
	h *emp.RecvHandle
}

// Notify registers the request's announced channels in the
// awaiting-accept registry the moment the request lands, so early data
// for the not-yet-accepted connection survives staleness purges, then
// wakes the listener.
func (b backlogPost) Notify() {
	b.l.sub.noteAwaiting(b.l, b.h)
	b.l.Notify()
}

// post adds one backlog descriptor. A request PostRecv already claimed
// from the unexpected queue is registered here, since its completion
// notified nobody.
func (l *listener) post(p *sim.Proc) {
	h := l.sub.EP.PostRecv(p, emp.AnySource, listenTag(l.port), connReqBytes, emp.KeyNone)
	l.sub.noteAwaiting(l, h)
	h.SetNotify(backlogPost{l, h})
	l.handles = append(l.handles, h)
}

// Addr implements sock.Listener.
func (l *listener) Addr() sock.Addr { return l.sub.addr }

// Port implements sock.Listener.
func (l *listener) Port() int { return l.port }

// acceptable reports whether Accept would return without blocking.
func (l *listener) acceptable() bool {
	return !l.closed && len(l.handles) > 0 && l.handles[0].Status() != emp.StatusPending
}

// PollState implements sock.Pollable.
func (l *listener) PollState() sock.PollEvents {
	var ev sock.PollEvents
	if l.acceptable() {
		ev |= sock.PollIn
	}
	if l.closed {
		ev |= sock.PollErr
	}
	return ev
}

// PollSource implements sock.Pollable.
func (l *listener) PollSource() *sock.NoteSource { return &l.src }

// Accept implements sock.Listener: block on the head-of-backlog
// descriptor (the paper's Section 5.1 design), build the connection from
// the request's tag assignments, and replenish the backlog.
func (l *listener) Accept(p *sim.Proc) (sock.Conn, error) {
	p.Sleep(libCall)
	if l.closed {
		return nil, sock.ErrClosed
	}
	h := l.handles[0]
	msg, st := l.sub.EP.WaitRecv(p, h)
	if l.closed || st == emp.StatusCancelled {
		return nil, sock.ErrClosed
	}
	l.handles = l.handles[1:]
	l.post(p) // replenish the backlog
	if st != emp.StatusOK {
		return nil, sock.ErrReset
	}
	hdr, ok := msg.Data.(*header)
	if !ok || hdr.Kind != kindConnReq || hdr.Req == nil {
		return nil, sock.ErrReset
	}
	l.sub.ConnsAccepted.Inc()
	l.sub.doneAwaiting(hdr.Req)
	l.sub.Eng.Tracef("substrate", "accept %d <- %d:%d", l.sub.addr, hdr.Req.ClientAddr, hdr.Req.ClientPort)
	c := newConn(l.sub, hdr.Req.ClientAddr, hdr.Req, false)
	c.postInitialDescriptors(p)
	if hdr.Req.SyncConnect {
		l.sub.EP.Send(p, c.peer, c.ackOutTag, headerBytes,
			&header{Kind: kindConnReply}, emp.KeyNone)
	}
	return c, nil
}

// Close implements sock.Listener: unpost every backlog descriptor (EMP
// has no garbage collection — Section 5.3) and refuse every connection
// request the listener will now never accept — completed requests
// sitting in the backlog and requests still parked in the unexpected
// queue — so their dialers fail fast with sock.ErrRefused instead of
// waiting out a timeout. Only procs registered on this listener wake:
// each unpost cancels its descriptor, whose completion notifies the
// listener — unrelated blocked sockets on the host see nothing.
func (l *listener) Close(p *sim.Proc) error {
	p.Sleep(libCall)
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.sub.listeners, l.port)
	refuse := func(m emp.Message) {
		if hdr, ok := m.Data.(*header); ok && hdr.Kind == kindConnReq && hdr.Req != nil {
			l.sub.doneAwaiting(hdr.Req)
			if !l.sub.dead {
				l.sub.refuseReq(p, hdr.Req)
			}
		}
	}
	for _, h := range l.handles {
		if h.Status() == emp.StatusPending && l.sub.EP.Unpost(p, h) {
			continue
		}
		// Completed, possibly by an arriving request that won the race
		// with the unpost: refuse that one too.
		if h.Status() == emp.StatusOK {
			refuse(h.Message())
		}
	}
	l.handles = nil
	l.sub.dropAwaiting(l)
	// Requests parked in the unexpected queue behind the backlog get an
	// explicit refusal as well; the purge then reclaims whatever's left.
	for !l.sub.dead {
		m, ok := l.sub.EP.PollUnexpected(p, emp.AnySource, listenTag(l.port), connReqBytes)
		if !ok {
			break
		}
		refuse(m)
	}
	if !l.sub.dead {
		l.sub.purgeStaleUQ()
	}
	l.Notify()
	return nil
}

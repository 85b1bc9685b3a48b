package emp

import (
	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// BufKey identifies a registered host memory area for the pin/translation
// cache. The first post that touches a key pays the pin-and-translate
// system call; subsequent posts on the same key hit the translation cache
// and bypass the operating system entirely — the paper's "subsequent
// operations on the same memory areas do not require another trip through
// the operating system".
type BufKey int64

// KeyNone marks a post with no host data buffer (header-only message);
// it never pays pinning cost.
const KeyNone BufKey = 0

// The EMP costs beyond the NIC's hardware table.
const (
	// ackTxCost is receive-CPU work to generate one ack/nack frame.
	ackTxCost = 2 * sim.Microsecond
	// ackRxCost is receive-CPU work to consume one ack/nack frame.
	ackRxCost = 1 * sim.Microsecond
	// hostPostCPU is the host-side cost of building one descriptor.
	hostPostCPU = 300 * sim.Nanosecond
	// tcacheCap bounds the translation cache (registered areas); past
	// it the oldest registration is evicted.
	tcacheCap = 1024
)

// Config tunes the endpoint.
type Config struct {
	// UnexpectedSlots is the size of the NIC unexpected-message queue;
	// zero disables it (unmatched messages are dropped and later
	// retransmitted by the sender).
	UnexpectedSlots int
	// UnexpectedBytes caps the total payload bytes parked in the
	// unexpected queue; zero means unlimited. When a newly parked
	// message pushes the queue over the cap, the oldest entry the setup
	// classifier (SetUnexpectedSetupClass) does not protect is dropped —
	// a deliberate lossy overload policy: the sender's NIC has already
	// acknowledged the message, so a dropped entry is lost, exactly like
	// datagram overflow in conventional stacks.
	UnexpectedBytes int
	// MaxDescriptors bounds descriptors in use — posted receive
	// descriptors plus send transmission records — so a flood cannot
	// grow NIC-resident state without limit. Zero means unlimited.
	// PostSend/PostRecv over budget fail fast with StatusNoDescriptors.
	MaxDescriptors int
	// BootEpoch salts the message-ID counter: IDs start at
	// BootEpoch<<32. Receivers deduplicate arrivals by (src, msgID), and
	// that state outlives a crashed peer — a reborn endpoint reusing its
	// predecessor's IDs would have its first messages silently re-acked
	// as late duplicates and never delivered. Bumping the epoch per
	// incarnation keeps the ID spaces disjoint, the same job a boot
	// counter or randomized initial ID does in real transports.
	BootEpoch uint64
}

// DefaultEndpointConfig returns the standard calibration.
func DefaultEndpointConfig() Config {
	return Config{
		UnexpectedSlots: 0,
		MaxDescriptors:  8192,
	}
}

// Counters are one endpoint's protocol counters and resource-pool
// levels, shared by the host-side library and its NIC firmware. The
// sockets substrate publishes the tagged fields under layer "emp".
type Counters struct {
	SendsPosted    sim.Counter `metric:"sends_posted"`
	RecvsPosted    sim.Counter `metric:"recvs_posted"`
	CacheHits      sim.Counter `metric:"cache_hits"`
	CacheMisses    sim.Counter `metric:"cache_misses"`
	MsgsDelivered  sim.Counter `metric:"msgs_delivered"`
	UnexpectedHits sim.Counter `metric:"unexpected_hits"`
	FramesDropped  sim.Counter `metric:"frames_dropped"`
	Retransmits    sim.Counter `metric:"retransmits"`
	AcksSent       sim.Counter `metric:"acks_sent"`
	NacksSent      sim.Counter `metric:"nacks_sent"`
	SendsFailed    sim.Counter `metric:"sends_failed"`
	Truncated      sim.Counter `metric:"truncated"`
	// Unposts counts descriptors reclaimed by Unpost — the teardown and
	// drain paths' "used or unposted" accounting (Section 5.3).
	Unposts sim.Counter `metric:"unposts"`

	// Descriptor-budget accounting (Config.MaxDescriptors): posted
	// receive descriptors plus live send transmission records, the most
	// ever in use, and acquisitions refused at the budget.
	descInUse  int         `metric:"desc_in_use"`
	descHW     int         `metric:"desc_high_water"`
	DescDenied sim.Counter `metric:"desc_denied"`

	// Unexpected-queue occupancy for the byte cap
	// (Config.UnexpectedBytes): bytes parked, the most entries ever
	// parked, and entries the cap evicted.
	uqBytes       int         `metric:"uq_bytes"`
	uqPeakEntries int         `metric:"uq_peak_entries"`
	UQDropped     sim.Counter `metric:"uq_dropped"`
}

// Endpoint is the host-side EMP library instance bound to one NIC.
type Endpoint struct {
	Eng  *sim.Engine
	Host *kernel.Host
	NIC  *nic.NIC
	Cfg  Config

	fw        *firmware
	addr      ethernet.Addr
	nextMsgID uint64
	dead      bool

	// onProtoEvent, when set, observes EMP reliability events
	// (retransmissions, NACKs, send failures) as they happen — the
	// sockets substrate routes them into the owning connection's flight
	// recorder and fails the connections to a peer a send gave up on.
	// Runs in firmware context, charges no time, must not block.
	onProtoEvent func(ProtoEvent)

	tcache     map[BufKey]struct{}
	tcacheFIFO []BufKey

	// The doorbell handlers, bound once: each mailbox write passes its
	// *txPost, *RecvHandle or *unpostOp as the handler's arg.
	sendBell, recvBell, unpostBell func(any)

	Counters
}

// descAcquire claims one descriptor-budget slot, reporting false when
// the budget is exhausted. The gauge is maintained even with the budget
// disabled so it can be audited.
func (ep *Endpoint) descAcquire() bool {
	if ep.Cfg.MaxDescriptors > 0 && ep.descInUse >= ep.Cfg.MaxDescriptors {
		ep.DescDenied.Inc()
		return false
	}
	ep.descInUse++
	if ep.descInUse > ep.descHW {
		ep.descHW = ep.descInUse
	}
	return true
}

func (ep *Endpoint) descRelease() {
	ep.descInUse--
	if ep.descInUse < 0 {
		panic("emp: descriptor accounting underflow")
	}
}

// DescriptorsInUse reports the current descriptor-budget gauge: posted
// receive descriptors (including posts still in mailbox flight) plus
// send transmission records not yet retired by the reliability layer.
func (ep *Endpoint) DescriptorsInUse() int { return ep.descInUse }

// DescriptorHighWater reports the maximum the gauge ever reached.
func (ep *Endpoint) DescriptorHighWater() int { return ep.descHW }

// NewEndpoint creates an endpoint and installs the EMP firmware on the
// NIC, its send and receive processors idle until work arrives. The NIC
// must already be attached to a switch.
func NewEndpoint(e *sim.Engine, host *kernel.Host, n *nic.NIC, cfg Config) *Endpoint {
	ep := &Endpoint{
		Eng:       e,
		Host:      host,
		NIC:       n,
		Cfg:       cfg,
		addr:      n.Addr(),
		nextMsgID: cfg.BootEpoch << 32,
		tcache:    make(map[BufKey]struct{}),
	}
	ep.sendBell, ep.recvBell, ep.unpostBell = ep.sendDoorbell, ep.recvDoorbell, ep.unpostDoorbell
	ep.fw = newFirmware(ep)
	return ep
}

// sendDoorbell is the send doorbell's handler: the send CPU picks the post
// up, unless the endpoint died first.
func (ep *Endpoint) sendDoorbell(a any) {
	post := a.(*txPost)
	if !ep.fw.tx.put(workItem{send: post}) {
		ep.descRelease() // no record was created
		post.h.complete(StatusFailed)
	}
}

// recvDoorbell is the receive doorbell's handler: the receive CPU picks the
// descriptor up, unless the endpoint died first.
func (ep *Endpoint) recvDoorbell(a any) {
	h := a.(*RecvHandle)
	if !ep.fw.rx.put(workItem{recv: h}) {
		h.complete(StatusCancelled, Message{}) // endpoint died before pickup
	}
}

// unpostDoorbell is the unpost doorbell's handler; an endpoint that died
// before pickup leaves nothing to unpost.
func (ep *Endpoint) unpostDoorbell(a any) {
	op := a.(*unpostOp)
	if ep.fw.rx.put(workItem{unpost: op}) {
		return
	}
	op.processed = true
	op.done.Broadcast()
}

// Addr reports the endpoint's station address.
func (ep *Endpoint) Addr() ethernet.Addr { return ep.addr }

// Shutdown stops the firmware processors taking new work: a later post
// fails, and frames arriving at the NIC are ignored. Work already queued
// still runs.
func (ep *Endpoint) Shutdown() { ep.fw.shutdown() }

// ProtoEvent is one EMP reliability event surfaced to the layer above:
// a retransmission round, a received NACK, or a send abandoned after
// exhausting its retry budget. Dst and Tag identify the send channel,
// which the substrate maps back to the owning connection.
type ProtoEvent struct {
	Kind    string // "emp-rexmit", "emp-nack", "emp-send-failed"
	Dst     ethernet.Addr
	Tag     Tag
	Retries int // consecutive retries so far (rexmit, send-failed)
	Frags   int // fragments resent (rexmit) or NACK restart point (nack)
}

// SetEventNotify registers fn to observe EMP reliability events. fn runs
// in firmware context, is charged no simulated time, and must not block;
// record-and-return (flight recorders, counters) or scheduling a later
// event is the intended use. A send abandoned after its retry budget
// (the peer NIC stopped acknowledging) raises "emp-send-failed" once,
// after the send is retired.
func (ep *Endpoint) SetEventNotify(fn func(ProtoEvent)) { ep.onProtoEvent = fn }

func (ep *Endpoint) notifyEvent(ev ProtoEvent) {
	if ep.onProtoEvent != nil {
		ep.onProtoEvent(ev)
	}
}

// ResendStreak reports how many consecutive retransmission rounds to dst
// have run without any acknowledgment progress — the health monitor's
// "is the path to this peer wedged" signal. Zero on a healthy path.
func (ep *Endpoint) ResendStreak(dst ethernet.Addr) int { return ep.fw.resendStreak[dst] }

// Kill models this endpoint's host dying mid-run: the NIC stops moving
// frames, every in-flight send fails, every posted descriptor is
// cancelled, and the firmware processors take no new work. Blocked
// WaitSend/WaitRecv callers wake with failure statuses; peers discover
// the death through their own retry budgets.
func (ep *Endpoint) Kill() {
	if ep.dead {
		return
	}
	ep.dead = true
	ep.NIC.Kill()
	ep.fw.kill()
}

// Dead reports whether Kill has been called.
func (ep *Endpoint) Dead() bool { return ep.dead }

// translate charges p for the address translation of a post: free on a
// translation-cache hit, a pin system call on a miss.
func (ep *Endpoint) translate(p *sim.Proc, key BufKey) {
	if key == KeyNone {
		return
	}
	if _, ok := ep.tcache[key]; ok {
		ep.CacheHits.Inc()
		return
	}
	ep.CacheMisses.Inc()
	ep.Host.Pin(p)
	if len(ep.tcacheFIFO) >= tcacheCap {
		old := ep.tcacheFIFO[0]
		ep.tcacheFIFO = ep.tcacheFIFO[1:]
		delete(ep.tcache, old)
	}
	ep.tcache[key] = struct{}{}
	ep.tcacheFIFO = append(ep.tcacheFIFO, key)
}

// Notifiable is a handle's owner: the socket whose callers park on its
// own events rather than on the handle. A completing handle notifies it
// once.
type Notifiable interface {
	Notify()
}

// SendHandle tracks one posted send. The send completes locally when the
// last fragment has been handed to the MAC; reliability continues in the
// background (acknowledgments are NIC-to-NIC and invisible to the host).
// It finishes one way: complete wakes the proc parked in WaitSend, then
// notifies the owner.
type SendHandle struct {
	status Status
	cond   sim.Cond
	notify Notifiable
	msgID  uint64
	dst    ethernet.Addr
	tag    Tag
	length int
	post   txPost // the send CPU's work item, allocated with the handle
}

// Status reports the handle's current state.
func (h *SendHandle) Status() Status { return h.status }

// SetNotify sets the owner notified on completion: the sockets
// substrate points it at the owning connection, so a waiter parked on
// that connection's events still wakes when the send lands.
func (h *SendHandle) SetNotify(n Notifiable) { h.notify = n }

func (h *SendHandle) complete(s Status) {
	if h.status != StatusPending {
		return
	}
	h.status = s
	h.cond.Broadcast()
	if h.notify != nil {
		h.notify.Notify()
	}
}

// PostSend posts a transmit descriptor for an n-byte message to dst with
// the given tag. data is the opaque payload object delivered to the
// matching receive (nil is fine when only timing matters). key selects
// the translation-cache entry for the source buffer.
func (ep *Endpoint) PostSend(p *sim.Proc, dst ethernet.Addr, tag Tag, length int, data any, key BufKey) *SendHandle {
	if length < 0 {
		panic("emp: negative send length")
	}
	ep.SendsPosted.Inc()
	ep.nextMsgID++
	h := &SendHandle{
		status: StatusPending,
		cond:   sim.MakeCond(ep.Eng, "emp.send"),
		msgID:  ep.nextMsgID,
		dst:    dst,
		tag:    tag,
		length: length,
	}
	if ep.dead {
		h.complete(StatusFailed)
		return h
	}
	if !ep.descAcquire() {
		// Fail fast, before any post cost: nothing reaches the NIC.
		h.complete(StatusNoDescriptors)
		return h
	}
	p.Sleep(hostPostCPU)
	ep.translate(p, key)
	ep.Host.MMIO(p)
	h.post = txPost{h: h, data: data}
	ep.NIC.Ring(ep.sendBell, &h.post)
	return h
}

// WaitSend blocks until the send completes locally and returns its
// status.
func (ep *Endpoint) WaitSend(p *sim.Proc, h *SendHandle) Status {
	h.cond.WaitFor(p, func() bool { return h.status != StatusPending })
	return h.status
}

// Send posts a send and waits for local completion.
func (ep *Endpoint) Send(p *sim.Proc, dst ethernet.Addr, tag Tag, length int, data any, key BufKey) Status {
	return ep.WaitSend(p, ep.PostSend(p, dst, tag, length, data, key))
}

// RecvHandle tracks one posted receive descriptor. Like SendHandle it
// finishes one way: complete wakes the proc parked in WaitRecv, then
// notifies the owner.
type RecvHandle struct {
	status Status
	cond   sim.Cond
	msg    Message
	notify Notifiable

	ep      *Endpoint
	counted bool

	src    ethernet.Addr
	tag    Tag
	maxLen int
	desc   recvDesc // the NIC's descriptor, allocated with the handle
}

// SetNotify sets the owner notified on completion; the sockets
// substrate points it at the owning connection or listener so only procs
// registered on that object wake. The notification runs in event
// context and must not block. A handle PostRecv already completed (from
// the unexpected queue) notifies nobody: its poster reads Status.
func (h *RecvHandle) SetNotify(n Notifiable) { h.notify = n }

// Match reports the (source, tag) pair the descriptor was posted for;
// the leak auditor uses it to describe orphaned descriptors.
func (h *RecvHandle) Match() (ethernet.Addr, Tag) { return h.src, h.tag }

// Status reports the handle's current state.
func (h *RecvHandle) Status() Status { return h.status }

// Message returns the delivered message once Status is StatusOK, and
// the zero Message before that or on any other status.
func (h *RecvHandle) Message() Message {
	if h.status != StatusOK {
		return Message{}
	}
	return h.msg
}

func (h *RecvHandle) complete(s Status, m Message) {
	if h.status != StatusPending {
		return
	}
	h.status = s
	h.msg = m
	if s == StatusOK {
		// Latency decomposition: this is the instant the message becomes
		// visible to the host (after the HostNotify delay and, for
		// unexpected-queue claims, the staging copy).
		if sp, ok := m.Data.(telemetry.Spanned); ok {
			sp.TelemetrySpan().MarkOnce("deliver", h.ep.Eng.Now())
		}
	}
	if h.counted {
		h.counted = false
		h.ep.descRelease()
	}
	h.cond.Broadcast()
	if h.notify != nil {
		h.notify.Notify()
	}
}

// PostRecv posts a receive descriptor matching (src, tag); src may be
// AnySource. maxLen is the posted buffer's capacity — a larger arriving
// message completes the handle with StatusTruncated. The descriptor
// first consults the host-visible unexpected queue: a message already
// waiting there is claimed immediately, paying the extra memory copy the
// paper describes.
func (ep *Endpoint) PostRecv(p *sim.Proc, src ethernet.Addr, tag Tag, maxLen int, key BufKey) *RecvHandle {
	ep.RecvsPosted.Inc()
	h := &RecvHandle{
		status: StatusPending,
		cond:   sim.MakeCond(ep.Eng, "emp.recv"),
		ep:     ep,
		src:    src,
		tag:    tag,
		maxLen: maxLen,
	}
	if ep.dead {
		h.complete(StatusCancelled, Message{})
		return h
	}
	p.Sleep(hostPostCPU)
	// The library checks the unexpected queue in user space before
	// troubling the NIC.
	if m, ok := ep.fw.claimUnexpected(src, tag, maxLen); ok {
		ep.Host.Copy(p, m.Len) // temp buffer -> user buffer
		h.complete(StatusOK, m)
		return h
	}
	// A queue hit needed no descriptor; an actual post does.
	if !ep.descAcquire() {
		h.complete(StatusNoDescriptors, Message{})
		return h
	}
	h.counted = true
	ep.translate(p, key)
	ep.Host.MMIO(p)
	ep.NIC.Ring(ep.recvBell, h)
	return h
}

// WaitRecv blocks until the receive completes and returns the message
// and status. The configured host poll gap is charged on completion
// (user-level completion detection is by polling).
func (ep *Endpoint) WaitRecv(p *sim.Proc, h *RecvHandle) (Message, Status) {
	h.cond.WaitFor(p, func() bool { return h.status != StatusPending })
	if h.status == StatusOK {
		p.Sleep(nic.HostPollGap)
	}
	return h.Message(), h.status
}

// PollUnexpected checks the host-visible unexpected queue for a matching
// completed message without posting a descriptor. On a hit the
// temp-buffer-to-user copy is charged to p. The substrate's
// unexpected-queue acknowledgment option uses this to consume credit
// acknowledgments without keeping descriptors in the NIC's tag-match
// list.
func (ep *Endpoint) PollUnexpected(p *sim.Proc, src ethernet.Addr, tag Tag, maxLen int) (Message, bool) {
	p.Sleep(hostPostCPU)
	m, ok := ep.fw.claimUnexpected(src, tag, maxLen)
	if ok {
		ep.Host.Copy(p, m.Len)
		if sp, ok2 := m.Data.(telemetry.Spanned); ok2 {
			sp.TelemetrySpan().MarkOnce("deliver", p.Now())
		}
	}
	return m, ok
}

// SetUnexpectedRoute registers a per-arrival callback invoked (in event
// context, must not block) with the source and tag of each message that
// parks in the unexpected queue. The sockets substrate uses it to wake
// only the connection or listener the message is addressed to, instead
// of broadcasting to every blocked proc on the host.
func (ep *Endpoint) SetUnexpectedRoute(fn func(src ethernet.Addr, tag Tag)) {
	ep.fw.uqRoute = fn
}

// PurgeUnexpected discards host-visible unexpected-queue messages for
// which keep reports false, freeing their NIC slots. The sockets
// substrate uses it to drop stale control messages addressed to closed
// connections, so churning connections cannot exhaust the queue.
func (ep *Endpoint) PurgeUnexpected(keep func(src ethernet.Addr, tag Tag) bool) int {
	var drop []*uqEntry
	ep.fw.uq.forEach(func(e *uqEntry) {
		if !keep(e.msg.Src, e.msg.Tag) {
			drop = append(drop, e)
		}
	})
	for _, e := range drop {
		ep.fw.uq.remove(e)
		ep.uqBytes -= e.msg.Len
	}
	purged := len(drop)
	if purged > 0 {
		ep.NIC.Ring(ep.fw.uqFreeBell, purged)
	}
	return purged
}

// PeekUnexpected reports whether a matching completed message is waiting
// in the host-visible unexpected queue, without claiming it or charging
// any time (a user-space flag check).
func (ep *Endpoint) PeekUnexpected(src ethernet.Addr, tag Tag) bool {
	return ep.fw.uq.find(src, tag, -1) != nil
}

// CountUnexpected counts matching messages waiting in the host-visible
// unexpected queue (src may be AnySource), without claiming anything or
// charging time.
func (ep *Endpoint) CountUnexpected(src ethernet.Addr, tag Tag) int {
	return ep.fw.uq.count(src, tag)
}

// SetUnexpectedSetupClass registers a classifier marking tags whose
// unexpected-queue entries must never be dropped by the byte-cap
// eviction (Config.UnexpectedBytes) — the sockets substrate protects
// connection-setup requests, which carry state that cannot be
// retransmitted once the NIC has acknowledged them.
func (ep *Endpoint) SetUnexpectedSetupClass(fn func(tag Tag) bool) { ep.fw.uqSetup = fn }

// VisitUnexpected calls f with every parked unexpected-queue message,
// in arrival order, walking the queue in place. The leak auditor, the
// substrate's purge and its keepalive's peer-close check use it; it
// charges no simulated time, and f must not claim or purge entries.
func (ep *Endpoint) VisitUnexpected(f func(m Message)) {
	ep.fw.uq.forEach(func(e *uqEntry) { f(e.msg) })
}

// PostedRecvs lists the receive handles currently in the NIC's
// pre-posted descriptor list, for the leak auditor's ownership walk. It
// excludes posts still in mailbox flight and charges no simulated time.
func (ep *Endpoint) PostedRecvs() []*RecvHandle {
	out := make([]*RecvHandle, 0, ep.fw.posted.len())
	ep.fw.posted.forEach(func(d *recvDesc) {
		out = append(out, d.h)
	})
	return out
}

// Unpost withdraws a still-unmatched receive descriptor. It reports
// whether the descriptor was reclaimed (false means it was already
// consumed by an arrival). EMP has no garbage collection — every
// descriptor must be used or explicitly unposted, and the sockets
// substrate's close() path depends on this.
func (ep *Endpoint) Unpost(p *sim.Proc, h *RecvHandle) bool {
	if h.status != StatusPending {
		return false
	}
	if ep.dead {
		// The descriptor list died with the NIC; no mailbox round trip
		// (which could never complete) is needed.
		h.complete(StatusCancelled, Message{})
		ep.Unposts.Inc()
		return true
	}
	p.Sleep(hostPostCPU)
	ep.Host.MMIO(p)
	op := &unpostOp{h: h, done: sim.MakeCond(ep.Eng, "emp.unpost")}
	ep.NIC.Ring(ep.unpostBell, op)
	op.done.WaitFor(p, func() bool { return op.processed })
	if h.status == StatusCancelled {
		ep.Unposts.Inc()
		return true
	}
	return false
}

// SetUnexpectedEvictNotify registers a callback invoked (in event
// context, must not block) when the unexpected-queue byte cap evicts a
// parked message; the substrate routes it to the owning connection's
// flight recorder.
func (ep *Endpoint) SetUnexpectedEvictNotify(fn func(src ethernet.Addr, tag Tag, length int)) {
	ep.fw.uqEvict = fn
}

// PrepostedDescriptors reports how many receive descriptors are currently
// posted at the NIC (tag-match walk length); used by tests and the
// credit-size experiments.
func (ep *Endpoint) PrepostedDescriptors() int { return ep.fw.posted.len() }

// UnexpectedQueued reports completed messages waiting in the unexpected
// queue.
func (ep *Endpoint) UnexpectedQueued() int { return ep.fw.uq.len() }

// UnexpectedBytes reports the payload bytes currently parked in the
// unexpected queue.
func (ep *Endpoint) UnexpectedBytes() int { return ep.uqBytes }

// UnexpectedPeakEntries reports the most entries the unexpected queue
// ever held — the occupancy high-water mark overload tests assert on.
func (ep *Endpoint) UnexpectedPeakEntries() int { return ep.uqPeakEntries }

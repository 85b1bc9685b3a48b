package emp

import (
	"repro/internal/ethernet"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

type txPost struct {
	h    *sendHandle
	data any
}

type unpostOp struct {
	h         *RecvHandle
	processed bool
	done      sim.Cond
}

// recvDesc is one pre-posted receive descriptor. The descriptors live
// in a descTable: a global post-order list (prev/next) — the list the
// paper's NIC walks linearly, whose length the delayed-acknowledgment
// and unexpected-queue optimizations shorten — plus a (src, tag)
// bucket chain (bprev/bnext) that the hashed-cost mode probes instead.
type recvDesc struct {
	h *RecvHandle

	tbl          *descTable
	seq          uint64 // global post-order sequence number
	prev, next   *recvDesc
	bprev, bnext *recvDesc // bucket chain, post-ordered
}

// txRecord is the transmission record the paper's T3 step creates: the
// state needed to retransmit until the receiver NIC has acknowledged
// every fragment.
type txRecord struct {
	msgID  uint64
	dst    ethernet.Addr
	tag    Tag
	length int
	data   any
	nfrag  int
	sent   int
	acked  int

	retries int
	rto     sim.Duration
	timer   sim.Event
	failed  bool
}

type reasmKey struct {
	src   ethernet.Addr
	msgID uint64
}

// reassembly tracks an in-progress arrival: either bound to a matched
// descriptor, parked in the unexpected queue, or sinking a message that
// overflowed its descriptor's buffer.
type reassembly struct {
	key      reasmKey
	tag      Tag
	msgLen   int
	nfrag    int
	expected int
	sinceAck int
	lastNack int
	data     any
	h        *RecvHandle
	uq       bool
	sink     bool
}

type uqEntry struct {
	msg Message

	prev, next   *uqEntry // global FIFO order
	bprev, bnext *uqEntry // per-tag chain, FIFO-ordered within the tag
}

const completedRingCap = 4096

// firmware holds the NIC-resident EMP state and runs the send and
// receive processors of the two Tigon2 CPUs as event-driven activities
// (see activity), each taking one work item at a time from its queue.
type firmware struct {
	*Counters // the endpoint's, shared

	ep  *Endpoint
	n   *nic.NIC
	eng *sim.Engine

	tx, rx activity // the send and receive CPUs

	// dmaBusy and dmaWaiters are the DMA engine's lock, which both CPUs
	// and every retransmission take, one transfer at a time.
	dmaBusy    bool
	dmaWaiters sim.Queue[*activity]
	// windowWaiter is the send CPU while it waits for room in a
	// destination window (see waitWindow).
	windowWaiter *activity

	posted *descTable
	// destInflight tracks unacknowledged fragments per destination
	// across all transmission records: the sender-side window that
	// keeps a fast sender from swamping the receiver NIC's frame
	// processing (which runs slightly slower than wire rate).
	destInflight map[ethernet.Addr]int
	// resendStreak counts consecutive retransmission rounds per
	// destination without any acknowledgment progress — the raw signal
	// behind connection health monitoring (a climbing streak means the
	// peer, or the path to it, is wedged).
	resendStreak map[ethernet.Addr]int
	uqSlots      int
	uq           *uqTable
	reasm        map[reasmKey]*reassembly
	records      map[uint64]*txRecord

	// completed remembers the last completedRingCap fully received
	// messages so late duplicates are re-acked, not reassembled again.
	// completedRing holds their keys, growing to completedRingCap and
	// then overwritten in place at completedNext % completedRingCap,
	// the oldest key.
	completed     map[reasmKey]bool
	completedRing []reasmKey
	completedNext int
	uqRoute       func(src ethernet.Addr, tag Tag)
	// uqEvict reports byte-cap evictions to the host layer (event
	// context, must not block) so the owning connection's flight
	// recorder can log them.
	uqEvict func(src ethernet.Addr, tag Tag, length int)
	// uqSetup marks tags whose entries the byte-cap eviction must keep
	// (connection-setup requests).
	uqSetup func(tag Tag) bool

	// uqFreeBell and rexmitFn are bound once: the unexpected-queue free
	// doorbell's handler, whose arg is the slot count, and the
	// retransmission timer's fn, whose arg is the *txRecord.
	uqFreeBell func(any)
	rexmitFn   func(any)
}

// maxFrag is the per-fragment payload this NIC's MTU allows.
func (fw *firmware) maxFrag() int {
	mtu := fw.n.Cfg.MTU
	if mtu <= 0 {
		mtu = maxFragPayload + frameHeaderBytes
	}
	return mtu - frameHeaderBytes
}

func newFirmware(ep *Endpoint) *firmware {
	fw := &firmware{
		Counters:     &ep.Counters,
		ep:           ep,
		n:            ep.NIC,
		eng:          ep.Eng,
		uqSlots:      ep.Cfg.UnexpectedSlots,
		posted:       newDescTable(),
		uq:           newUQTable(),
		destInflight: make(map[ethernet.Addr]int),
		resendStreak: make(map[ethernet.Addr]int),
		reasm:        make(map[reasmKey]*reassembly),
		records:      make(map[uint64]*txRecord),
		completed:    make(map[reasmKey]bool),
	}
	fw.tx, fw.rx = newCPU(fw, serveSend), newCPU(fw, serveRecv)
	fw.uqFreeBell, fw.rexmitFn = fw.uqFreeDoorbell, fw.rexmitFired
	fw.n.SetSink(func(f *ethernet.Frame) { fw.rx.put(workItem{frame: f}) })
	return fw
}

func (fw *firmware) shutdown() {
	fw.tx.close()
	fw.rx.close()
}

// kill tears the firmware state down when the host dies: every
// transmission record fails (waking blocked send posts), every posted
// descriptor and in-progress reassembly is cancelled, the unexpected
// queue is discarded, and the processors take no new work. Handlers run
// with dead-endpoint guards for work already queued.
func (fw *firmware) kill() {
	for _, rec := range fw.records {
		rec.failed = true
		rec.timer.Cancel()
		fw.ep.descRelease()
	}
	fw.records = make(map[uint64]*txRecord)
	fw.destInflight = make(map[ethernet.Addr]int)
	fw.windowChanged()
	fw.posted.forEach(func(d *recvDesc) {
		d.h.complete(StatusCancelled, Message{})
	})
	fw.posted.reset()
	for _, r := range fw.reasm {
		if r.h != nil {
			r.h.complete(StatusCancelled, Message{})
		}
	}
	fw.reasm = make(map[reasmKey]*reassembly)
	fw.uq.reset()
	fw.uqBytes = 0
	fw.shutdown()
}

// --- Send processor -----------------------------------------------------

// serveSend takes the send CPU's next post.
func serveSend(a *activity) {
	if a.take() {
		a.next = sendPost
	}
}

// sendPost picks the post up. A wedged firmware CPU stops scheduling:
// the post waits until the wedge window ends.
func sendPost(a *activity) {
	if a.wedged(sendPost) {
		return
	}
	a.charge(nic.TxPostHandle, sendRecord)
}

// sendRecord creates the post's transmission record (the paper's T3
// step).
func sendRecord(a *activity) {
	fw, post := a.fw, a.item.send
	h := post.h
	if fw.ep.dead {
		fw.ep.descRelease() // no record will be created
		h.complete(StatusFailed)
		a.next = serveSend
		return
	}
	if sp, ok := post.data.(telemetry.Spanned); ok {
		sp.TelemetrySpan().MarkOnce("post", fw.eng.Now())
	}
	rec := &txRecord{
		msgID:  h.msgID,
		dst:    h.dst,
		tag:    h.tag,
		length: h.length,
		data:   post.data,
		nfrag:  fragCountFor(h.length, fw.maxFrag()),
		rto:    initialRTO,
	}
	fw.records[rec.msgID] = rec
	a.rec = rec
	a.next = sendFrags
}

// sendFrags hands the record's next fragment to the MAC, waiting for
// room in the destination window, until every fragment is out or the
// record fails.
func sendFrags(a *activity) {
	fw, rec := a.fw, a.rec
	if rec.sent < rec.nfrag && !rec.failed {
		if fw.destInflight[rec.dst] >= sendWindow {
			a.waitWindow()
		} else {
			a.sendFrag(rec.sent, fragSent)
		}
		return
	}
	a.next = serveSend
	h := a.item.send.h
	if rec.failed {
		h.complete(StatusFailed)
		return
	}
	// Local completion: all fragments handed to the MAC. Reliability
	// continues via the record until the receiver NIC acks everything.
	fw.after(nic.HostNotify, sendDone, h)
	if rec.acked >= rec.nfrag {
		fw.retire(rec)
	} else {
		fw.armTimer(rec)
	}
}

func fragSent(a *activity) {
	a.rec.sent++
	a.fw.destInflight[a.rec.dst]++
	a.next = sendFrags
}

// sendFrag hands fragment seq of a.rec to the MAC, then runs done.
func (a *activity) sendFrag(seq int, done stage) {
	a.frag, a.fragDone = seq, done
	a.next = fragRoom
}

// fragRoom waits for room in the MAC queue, then charges the send CPU's
// per-frame work.
func fragRoom(a *activity) {
	if d := a.fw.n.TxRoomWait(); d > 0 {
		a.charge(d, fragRoom)
		return
	}
	a.charge(nic.TxPerFrame, fragFetch)
}

// fragFetch moves the fragment host memory -> NIC, zero-copy from the
// user buffer.
func fragFetch(a *activity) {
	a.dma(fragLen(a.rec.length, a.frag, a.fw.maxFrag()), fragOut)
}

func fragOut(a *activity) {
	fw, rec, seq := a.fw, a.rec, a.frag
	a.next = a.fragDone
	fl := fragLen(rec.length, seq, fw.maxFrag())
	wf := &wireFrame{
		Kind:    dataFrame,
		Src:     fw.ep.addr,
		Tag:     rec.tag,
		MsgID:   rec.msgID,
		Seq:     seq,
		NFrag:   rec.nfrag,
		MsgLen:  rec.length,
		FragLen: fl,
		Data:    rec.data,
	}
	if seq == 0 {
		// First fragment on the wire; MarkOnce keeps retransmissions
		// from moving the instant.
		if sp, ok := rec.data.(telemetry.Spanned); ok {
			sp.TelemetrySpan().MarkOnce("wire", fw.eng.Now())
		}
	}
	if fw.eng.Tracing() {
		fw.eng.Tracef(fw.n.Name, "tx data dst=%d tag=%d msg=%d frag=%d/%d len=%d", rec.dst, rec.tag, rec.msgID, seq+1, rec.nfrag, fl)
	}
	f := wf.carry(rec.dst, wireBytes(fl), uint32(rec.tag))
	if fw.n.FaultFlipDesc() {
		// A flipped transmit descriptor corrupts this transmission only:
		// the frame fails the receiver's FCS check and the retransmission
		// (a fresh descriptor fetch) goes out clean.
		f.Corrupt = true
		fw.eng.Tracef(fw.n.Name, "tx descriptor flipped (fault) msg=%d frag=%d", rec.msgID, seq)
	}
	fw.n.Transmit(f)
}

// scheduleResend runs a retransmission of rec as an activity of its own.
// It must not queue behind a send post: the send CPU can be waiting on
// the destination window for exactly the acknowledgments this
// retransmission would elicit (head-of-line deadlock otherwise). A
// record is never resent concurrently with its own initial transmission
// by its timer, which is armed only after the last fragment is handed
// off.
func (fw *firmware) scheduleResend(rec *txRecord) {
	a := &activity{fw: fw, rec: rec, next: rexmit, parked: true}
	a.wake()
}

// rexmit resends the record unless it was retired or failed meanwhile.
// The retransmit scheduler runs on the same wedged CPUs.
func rexmit(a *activity) {
	if a.wedged(rexmit) {
		return
	}
	if rec := a.rec; rec.failed || a.fw.records[rec.msgID] != rec {
		rexmitDone(a)
		return
	}
	a.resend(rexmitDone)
}

func rexmitDone(a *activity) { a.parked = true }

// resend retransmits every sent-but-unacknowledged fragment of a.rec
// (go-back-N), backs off the retransmission timeout, and runs done.
func (a *activity) resend(done stage) {
	fw, rec := a.fw, a.rec
	a.next = done
	if rec.acked >= rec.sent {
		return // nothing outstanding
	}
	rec.retries++
	if rec.retries > maxRetries {
		rec.failed = true
		fw.SendsFailed.Inc()
		fw.eng.Tracef(fw.n.Name, "SEND FAILED dst=%d tag=%d msg=%d after %d retries",
			rec.dst, rec.tag, rec.msgID, rec.retries-1)
		fw.releaseInflight(rec.dst, rec.sent-rec.acked)
		fw.retire(rec)
		fw.windowChanged()
		fw.ep.notifyEvent(ProtoEvent{Kind: "emp-send-failed", Dst: rec.dst, Tag: rec.tag,
			Retries: rec.retries - 1})
		return
	}
	fw.resendStreak[rec.dst]++
	fw.ep.notifyEvent(ProtoEvent{Kind: "emp-rexmit", Dst: rec.dst, Tag: rec.tag,
		Retries: rec.retries, Frags: rec.sent - rec.acked})
	fw.eng.Tracef(fw.n.Name, "REXMIT dst=%d msg=%d frags %d..%d retry=%d", rec.dst, rec.msgID, rec.acked, rec.sent, rec.retries)
	a.resendSeq, a.resendDone = rec.acked, done
	a.next = resendFrags
}

func resendFrags(a *activity) {
	rec := a.rec
	if a.resendSeq < rec.sent {
		a.fw.Retransmits.Inc()
		a.sendFrag(a.resendSeq, resendNext)
		return
	}
	rec.rto = min(rec.rto*rtoBackoff, maxRTO)
	if rec.sent >= rec.nfrag {
		a.fw.armTimer(rec)
	}
	a.next = a.resendDone
}

func resendNext(a *activity) {
	a.resendSeq++
	a.next = resendFrags
}

func (fw *firmware) armTimer(rec *txRecord) {
	rec.timer.Cancel()
	rec.timer = fw.after(rec.rto, fw.rexmitFn, rec)
}

// rexmitFired is the retransmission timer's fn.
func (fw *firmware) rexmitFired(a any) { fw.scheduleResend(a.(*txRecord)) }

// after schedules fn(arg) d from now.
func (fw *firmware) after(d sim.Duration, fn func(any), arg any) sim.Event {
	return fw.eng.AtArg(fw.eng.Now().Add(d), fn, arg)
}

// sendDone, truncDone and recvDone are the fns of the completion
// events, each passed the handle it completes. recvDone delivers the
// message that deliver stored in the handle.
func sendDone(a any)  { a.(*sendHandle).complete(StatusOK) }
func truncDone(a any) { a.(*RecvHandle).complete(StatusTruncated, Message{}) }
func recvDone(a any) {
	h := a.(*RecvHandle)
	h.complete(StatusOK, h.msg)
}

// deliver completes h with m d from now.
func (fw *firmware) deliver(d sim.Duration, h *RecvHandle, m Message) {
	h.msg = m
	fw.after(d, recvDone, h)
}

// retire releases a transmission record and its descriptor-budget slot;
// the slot is held from PostSend until the reliability layer is done
// with the message, so unacknowledged sends to an unreachable peer
// count against the budget for their whole retry lifetime.
func (fw *firmware) retire(rec *txRecord) {
	rec.timer.Cancel()
	if _, live := fw.records[rec.msgID]; live {
		delete(fw.records, rec.msgID)
		fw.ep.descRelease()
	}
}

// --- Receive processor --------------------------------------------------

// serveRecv takes the receive CPU's next work item.
func serveRecv(a *activity) {
	if a.take() {
		a.next = recvItem
	}
}

// recvItem dispatches the item once any wedge of the CPU is over.
func recvItem(a *activity) {
	if a.wedged(recvItem) {
		return
	}
	a.next = serveRecv
	switch it := a.item; {
	case it.frame != nil:
		a.recvFrame(it.frame)
	case it.recv != nil:
		a.charge(nic.RxPostHandle, recvPosted)
	case it.unpost != nil:
		a.charge(nic.RxPostHandle, unposted)
	default:
		a.fw.uqSlots += it.uqFree
	}
}

// recvFrame classifies an arriving frame and charges its processing.
func (a *activity) recvFrame(f *ethernet.Frame) {
	wf, ok := f.Payload.(*wireFrame)
	if !ok {
		a.fw.FramesDropped.Inc()
		return
	}
	a.wf = wf
	switch wf.Kind {
	case ackFrame:
		a.charge(ackRxCost, ackArrived)
	case nackFrame:
		a.charge(ackRxCost, nackArrived)
	case dataFrame:
		a.charge(a.fw.n.Cfg.EffectiveRxPerFrame(), dataArrived)
	}
}

func ackArrived(a *activity) {
	fw, wf := a.fw, a.wf
	a.next = serveRecv
	rec := fw.records[wf.MsgID]
	if rec == nil {
		return
	}
	if wf.AckSeq > rec.acked {
		newly := wf.AckSeq - rec.acked
		rec.acked = wf.AckSeq
		rec.retries = 0 // progress: the retry budget bounds stagnation
		rec.rto = initialRTO
		delete(fw.resendStreak, rec.dst) // progress resets the health streak
		fw.releaseInflight(rec.dst, newly)
	}
	if rec.acked >= rec.nfrag {
		if rec.sent >= rec.nfrag {
			fw.retire(rec)
		}
	} else if rec.sent >= rec.nfrag {
		fw.armTimer(rec) // progress: reset the timer
	}
}

// releaseInflight returns window slots for newly acknowledged fragments.
func (fw *firmware) releaseInflight(dst ethernet.Addr, n int) {
	fw.destInflight[dst] -= n
	if fw.destInflight[dst] <= 0 {
		delete(fw.destInflight, dst)
	}
	fw.windowChanged()
}

func nackArrived(a *activity) {
	fw, wf := a.fw, a.wf
	a.next = serveRecv
	rec := fw.records[wf.MsgID]
	if rec == nil {
		return
	}
	fw.ep.notifyEvent(ProtoEvent{Kind: "emp-nack", Dst: rec.dst, Tag: rec.tag, Frags: wf.AckSeq})
	if wf.AckSeq > rec.acked {
		newly := wf.AckSeq - rec.acked
		rec.acked = wf.AckSeq
		fw.releaseInflight(rec.dst, newly)
	}
	fw.scheduleResend(rec)
}

// dataArrived routes a data fragment: a late duplicate of a completed
// message is re-acked, a fragment of a message in reassembly goes on to
// its sequencing, and a message's first-seen fragment is classified.
func dataArrived(a *activity) {
	fw, wf := a.fw, a.wf
	key := reasmKey{wf.Src, wf.MsgID}
	if fw.completed[key] {
		// Late duplicate of a fully received message (its final ack was
		// lost): re-ack the whole message to silence the sender.
		a.sendCtl(ackFrame, wf.Src, wf.MsgID, wf.NFrag)
		return
	}
	if r := fw.reasm[key]; r != nil {
		a.r = r
		a.next = fragArrived
		return
	}
	// Tag match against the pre-posted descriptors, charging the lookup.
	a.desc, a.walked = fw.matchPreposted(wf.Src, wf.Tag, -1)
	a.charge(fw.n.TagMatch(a.walked), classified)
}

// classified starts the reassembly of a first-seen message: bound to
// the matched descriptor, parked in the unexpected queue, or dropped.
func classified(a *activity) {
	fw, wf, d := a.fw, a.wf, a.desc
	a.desc = nil
	if sp, ok := wf.Data.(telemetry.Spanned); ok {
		sp.TelemetrySpan().MarkOnce("match", fw.eng.Now())
	}
	key := reasmKey{wf.Src, wf.MsgID}
	r := &reassembly{
		key:      key,
		tag:      wf.Tag,
		msgLen:   wf.MsgLen,
		nfrag:    wf.NFrag,
		lastNack: -1,
	}
	switch {
	case d != nil:
		if fw.eng.Tracing() {
			fw.eng.Tracef(fw.n.Name, "tag match src=%d tag=%d walked=%d", wf.Src, wf.Tag, a.walked)
		}
		fw.posted.remove(d)
		r.h = d.h
		if wf.MsgLen > d.h.maxLen {
			// Arriving message overflows the posted buffer: consume and
			// discard, completing the descriptor with a truncation error.
			r.sink = true
		}
	case fw.uqSlots > 0:
		if fw.eng.Tracing() {
			fw.eng.Tracef(fw.n.Name, "unexpected src=%d tag=%d -> uq (slots left %d)", wf.Src, wf.Tag, fw.uqSlots-1)
		}
		fw.uqSlots--
		r.uq = true
	default:
		fw.eng.Tracef(fw.n.Name, "DROP src=%d tag=%d msg=%d (no descriptor, uq full)", wf.Src, wf.Tag, wf.MsgID)
		fw.FramesDropped.Inc()
		a.next = serveRecv
		return
	}
	fw.reasm[key] = r
	a.r = r
	a.next = fragArrived
}

// fragArrived runs the per-fragment sequencing machine for one
// classified data fragment: duplicates re-ack cumulative state, gaps
// request retransmission once, in-order fragments advance the
// reassembly, pay the NIC->host DMA and complete the message.
func fragArrived(a *activity) {
	fw, wf, r := a.fw, a.wf, a.r
	a.next = serveRecv
	switch {
	case wf.Seq < r.expected:
		// Duplicate fragment: re-ack cumulative state to resync sender.
		a.sendCtl(ackFrame, wf.Src, wf.MsgID, r.expected)
		return
	case wf.Seq > r.expected:
		// Gap: a fragment was lost; request retransmission once per gap.
		if r.lastNack != r.expected {
			r.lastNack = r.expected
			a.sendCtl(nackFrame, wf.Src, wf.MsgID, r.expected)
		}
		return
	}
	if fw.eng.Tracing() {
		fw.eng.Tracef(fw.n.Name, "rx data src=%d tag=%d msg=%d frag=%d/%d", wf.Src, wf.Tag, wf.MsgID, wf.Seq+1, wf.NFrag)
	}
	// In-order fragment.
	r.expected++
	r.lastNack = -1
	if r.sink {
		a.next = fragLanded
		return
	}
	a.dma(wf.FragLen, fragLanded) // NIC -> host buffer
}

func fragLanded(a *activity) {
	fw, wf, r := a.fw, a.wf, a.r
	a.next = serveRecv
	r.data = wf.Data
	r.sinceAck++
	done := r.expected >= r.nfrag
	if done {
		// Notify the host before generating the ack: the ack is
		// NIC-to-NIC housekeeping and stays off the data critical path.
		fw.finish(r)
	}
	if done || r.sinceAck >= ackWindow {
		r.sinceAck = 0
		a.sendCtl(ackFrame, wf.Src, wf.MsgID, r.expected)
	}
}

// sendCtl charges the receive CPU for generating an ack or nack of
// msgID up to seq, then sends it to dst and ends the work item.
func (a *activity) sendCtl(kind frameKind, dst ethernet.Addr, msgID uint64, seq int) {
	a.ctl = &wireFrame{Kind: kind, Src: a.fw.ep.addr, MsgID: msgID, AckSeq: seq}
	a.ctlDst = dst
	a.charge(ackTxCost, ctlOut)
}

func ctlOut(a *activity) {
	fw, wf := a.fw, a.ctl
	a.ctl = nil
	a.next = serveRecv
	if wf.Kind == ackFrame {
		fw.AcksSent.Inc()
	} else {
		fw.NacksSent.Inc()
	}
	fw.n.Transmit(wf.carry(a.ctlDst, ackFrameBytes, 0))
}

// matchPreposted is the single descriptor-match routine shared by the
// receive path and the host-side claim (matchDescriptor). need < 0
// skips the buffer-capacity check (the NIC-side match truncates on
// overflow instead of skipping the descriptor); need >= 0 requires the
// posted buffer to hold need bytes. The matched descriptor is left
// linked — the caller removes it. The second return is the lookup work
// for the timed NIC path to charge: descriptors walked (paper-faithful
// linear mode) or bucket entries probed (hashed mode).
func (fw *firmware) matchPreposted(src ethernet.Addr, tag Tag, need int) (*recvDesc, int) {
	if fw.n.Cfg.HashedMatch {
		return fw.posted.matchHashed(src, tag, need)
	}
	return fw.posted.matchLinear(src, tag, need)
}

// finish completes a fully reassembled message.
func (fw *firmware) finish(r *reassembly) {
	delete(fw.reasm, r.key)
	fw.markCompleted(r.key)
	msg := Message{Src: r.key.src, Tag: r.tag, Len: r.msgLen, Data: r.data}
	notify := nic.HostNotify
	switch {
	case r.sink:
		fw.Truncated.Inc()
		fw.after(notify, truncDone, r.h)
	case r.h != nil:
		fw.MsgsDelivered.Inc()
		fw.deliver(notify, r.h, msg)
	default:
		// Unexpected-queue completion: a matching descriptor may have
		// been posted while the message was arriving.
		if h := fw.matchDescriptor(msg); h != nil {
			fw.uqSlots++
			fw.UnexpectedHits.Inc()
			fw.MsgsDelivered.Inc()
			// The claim pays the temp-buffer -> user-buffer copy; it is
			// modeled as completion delay (the host thread is blocked in
			// WaitRecv, not doing other work).
			fw.deliver(notify+fw.ep.Host.CopyTime(msg.Len), h, msg)
			return
		}
		if r.uq && fw.n.FaultLoseUnexpected() {
			// The message is fully acknowledged at the EMP level, so the
			// sender will never retransmit it — it simply vanishes between
			// firmware and host. Credit updates riding the unexpected
			// queue are the classic victim; only the substrate's
			// credit-reconciliation sweep repairs the resulting drift.
			fw.uqSlots++
			fw.UQDropped.Inc()
			fw.eng.Tracef(fw.n.Name, "UQ delivery lost (fault) src=%d tag=%d len=%d", msg.Src, msg.Tag, msg.Len)
			return
		}
		if sp, ok := msg.Data.(telemetry.Spanned); ok {
			sp.TelemetrySpan().MarkOnce("uq", fw.eng.Now())
		}
		fw.uq.push(msg)
		fw.uqBytes += msg.Len
		if fw.uq.len() > fw.uqPeakEntries {
			fw.uqPeakEntries = fw.uq.len()
		}
		fw.enforceUQBytes()
		if fw.uqRoute != nil {
			fw.uqRoute(msg.Src, msg.Tag)
		}
	}
}

// enforceUQBytes applies the unexpected-queue byte cap: while over
// budget, the oldest entry not protected by the setup classifier is
// dropped and its NIC slot freed. Entries the classifier protects are
// never evicted, even if that leaves the queue over budget — setup
// requests are bounded separately by the substrate's refusal policy.
func (fw *firmware) enforceUQBytes() {
	limit := fw.ep.Cfg.UnexpectedBytes
	for limit > 0 && fw.uqBytes > limit {
		e := fw.uq.oldestWhere(func(e *uqEntry) bool {
			return fw.uqSetup == nil || !fw.uqSetup(e.msg.Tag)
		})
		if e == nil {
			return
		}
		fw.eng.Tracef(fw.n.Name, "UQ DROP src=%d tag=%d len=%d (byte cap %d)", e.msg.Src, e.msg.Tag, e.msg.Len, limit)
		fw.uq.remove(e)
		fw.uqBytes -= e.msg.Len
		fw.uqSlots++
		fw.UQDropped.Inc()
		if fw.uqEvict != nil {
			fw.uqEvict(e.msg.Src, e.msg.Tag, e.msg.Len)
		}
	}
}

// matchDescriptor finds and removes the first posted descriptor matching
// msg with sufficient buffer space. It runs in untimed firmware context
// (no NIC walk is charged — the walk was paid when the message arrived
// and missed), so it shares matchPreposted with the receive path purely
// for the match semantics.
func (fw *firmware) matchDescriptor(msg Message) *RecvHandle {
	d, _ := fw.matchPreposted(msg.Src, msg.Tag, msg.Len)
	if d == nil {
		return nil
	}
	fw.posted.remove(d)
	return d.h
}

func (fw *firmware) markCompleted(key reasmKey) {
	if len(fw.completedRing) < completedRingCap {
		fw.completedRing = append(fw.completedRing, key)
	} else {
		slot := fw.completedNext % completedRingCap
		delete(fw.completed, fw.completedRing[slot])
		fw.completedRing[slot] = key
	}
	fw.completed[key] = true
	fw.completedNext++
}

// recvPosted adds a picked-up receive descriptor to the posted list.
func recvPosted(a *activity) {
	fw, h := a.fw, a.item.recv
	a.next = serveRecv
	if h.status != StatusPending {
		return // completed host-side (unexpected-queue claim) in the meantime
	}
	if fw.ep.dead {
		h.complete(StatusCancelled, Message{})
		return
	}
	// Safety net: a message may have landed in the unexpected queue
	// between the host-side check and this post reaching the NIC.
	if e := fw.uq.find(h.src, h.tag, h.maxLen); e != nil {
		m := e.msg
		fw.uq.remove(e)
		fw.uqBytes -= m.Len
		fw.uqSlots++
		fw.UnexpectedHits.Inc()
		fw.MsgsDelivered.Inc()
		fw.deliver(nic.HostNotify+fw.ep.Host.CopyTime(m.Len), h, m)
		return
	}
	h.desc.h = h
	fw.posted.add(&h.desc)
}

// unposted withdraws a descriptor the host unposts.
func unposted(a *activity) {
	fw, op := a.fw, a.item.unpost
	a.next = serveRecv
	// A descriptor still in the table links back to it; one never posted,
	// or already consumed by a match and unlinked (tbl cleared), must not
	// be cancelled.
	if d := &op.h.desc; d.tbl == fw.posted {
		fw.posted.remove(d)
		op.h.complete(StatusCancelled, Message{})
	}
	op.processed = true
	op.done.Broadcast()
}

// claimUnexpected is called synchronously from host context (PostRecv):
// the EMP library checks the host-visible unexpected queue before posting
// a descriptor. The caller charges copy time.
func (fw *firmware) claimUnexpected(src ethernet.Addr, tag Tag, maxLen int) (Message, bool) {
	e := fw.uq.find(src, tag, maxLen)
	if e == nil {
		return Message{}, false
	}
	m := e.msg
	fw.uq.remove(e)
	fw.uqBytes -= m.Len
	fw.UnexpectedHits.Inc()
	fw.MsgsDelivered.Inc()
	// Tell the NIC to free the slot (a host doorbell write).
	fw.n.Ring(fw.uqFreeBell, 1)
	return m, true
}

// uqFreeDoorbell is the unexpected-queue free doorbell's handler: the
// receive CPU returns the arg's count of slots to the queue.
func (fw *firmware) uqFreeDoorbell(a any) { fw.rx.put(workItem{uqFree: a.(int)}) }

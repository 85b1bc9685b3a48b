package emp

import (
	"repro/internal/ethernet"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// txOp is one unit of work for the send processor.
type txOp struct {
	post *txPost
}

type txPost struct {
	h    *SendHandle
	data any
}

// rxOp is one unit of work for the receive processor.
type rxOp struct {
	frame  *ethernet.Frame
	post   *RecvHandle
	unpost *unpostOp
	uqFree int
}

type unpostOp struct {
	h         *RecvHandle
	processed bool
	done      *sim.Cond
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
	cond    *sim.Cond
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

// firmware holds the NIC-resident EMP state and runs the send/receive
// processors as simulated processes on the two Tigon2 CPUs.
type firmware struct {
	*Counters // the endpoint's, shared

	ep  *Endpoint
	n   *nic.NIC
	eng *sim.Engine

	txWork *sim.FIFO[txOp]
	rxWork *sim.FIFO[rxOp]

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
	txWindow     *sim.Cond
	uqSlots      int
	uq           *uqTable
	reasm        map[reasmKey]*reassembly
	records      map[uint64]*txRecord

	completed     map[reasmKey]bool
	completedRing []reasmKey
	uqNotify      sim.Notifiable
	uqRoute       func(src ethernet.Addr, tag Tag)
	// uqEvict reports byte-cap evictions to the host layer (event
	// context, must not block) so the owning connection's flight
	// recorder can log them.
	uqEvict func(src ethernet.Addr, tag Tag, length int)
	// uqSetup marks tags whose entries the byte-cap eviction must keep
	// (connection-setup requests).
	uqSetup func(tag Tag) bool

	sendProc *sim.Proc
	recvProc *sim.Proc
}

// maxFrag is the per-fragment payload this NIC's MTU allows.
func (fw *firmware) maxFrag() int {
	mtu := fw.n.Cfg.MTU
	if mtu <= 0 {
		mtu = MaxFragPayload + FrameHeaderBytes
	}
	return mtu - FrameHeaderBytes
}

func newFirmware(ep *Endpoint) *firmware {
	fw := &firmware{
		Counters:     &ep.Counters,
		ep:           ep,
		n:            ep.NIC,
		eng:          ep.Eng,
		txWork:       sim.NewFIFO[txOp](ep.Eng, ep.NIC.Name+".txwork", 0),
		rxWork:       sim.NewFIFO[rxOp](ep.Eng, ep.NIC.Name+".rxwork", 0),
		uqSlots:      ep.Cfg.UnexpectedSlots,
		posted:       newDescTable(),
		uq:           newUQTable(),
		destInflight: make(map[ethernet.Addr]int),
		resendStreak: make(map[ethernet.Addr]int),
		reasm:        make(map[reasmKey]*reassembly),
		records:      make(map[uint64]*txRecord),
		completed:    make(map[reasmKey]bool),
	}
	fw.txWindow = sim.NewCond(ep.Eng, ep.NIC.Name+".txwindow")
	fw.n.SetSink(func(f *ethernet.Frame) { fw.rxWork.TryPut(rxOp{frame: f}) })
	fw.sendProc = ep.Eng.Spawn(ep.NIC.Name+".sendcpu", fw.sendLoop)
	fw.recvProc = ep.Eng.Spawn(ep.NIC.Name+".recvcpu", fw.recvLoop)
	return fw
}

func (fw *firmware) shutdown() {
	fw.txWork.Close()
	fw.rxWork.Close()
}

// kill tears the firmware state down when the host dies: every
// transmission record fails (waking blocked send posts), every posted
// descriptor and in-progress reassembly is cancelled, the unexpected
// queue is discarded, and the processors stop once the work queues
// drain. Handlers run with dead-endpoint guards for work already queued.
func (fw *firmware) kill() {
	for _, rec := range fw.records {
		rec.failed = true
		rec.timer.Cancel()
		rec.cond.Broadcast()
		fw.ep.descRelease()
	}
	fw.records = make(map[uint64]*txRecord)
	fw.destInflight = make(map[ethernet.Addr]int)
	fw.txWindow.Broadcast()
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
	if fw.uqNotify != nil {
		fw.uqNotify.Notify()
	}
	fw.shutdown()
}

// --- Send processor -----------------------------------------------------

func (fw *firmware) sendLoop(p *sim.Proc) {
	for {
		op, ok := fw.txWork.Get(p)
		if !ok {
			return
		}
		// A wedged firmware CPU stops scheduling: queued posts sit in
		// txWork until the wedge window ends.
		fw.n.StallIfWedged(p)
		if op.post != nil {
			fw.handleSendPost(p, op.post)
		}
	}
}

// scheduleResend runs a retransmission in its own firmware process.
// It must not queue behind handleSendPost: the send loop can be blocked
// on the destination window waiting for exactly the acknowledgments this
// retransmission would elicit (head-of-line deadlock otherwise). A
// record is never resent concurrently with its own initial transmission
// — the timer is armed only after the last fragment is handed off.
func (fw *firmware) scheduleResend(id uint64) {
	fw.eng.Spawn(fw.n.Name+".rexmit", func(p *sim.Proc) {
		// The retransmit scheduler runs on the same wedged CPUs.
		fw.n.StallIfWedged(p)
		if rec := fw.records[id]; rec != nil && !rec.failed {
			fw.resend(p, rec)
		}
	})
}

func (fw *firmware) handleSendPost(p *sim.Proc, post *txPost) {
	p.Sleep(fw.n.Cfg.TxPostHandle)
	h := post.h
	if fw.ep.dead {
		fw.ep.descRelease() // no record will be created
		h.complete(StatusFailed)
		return
	}
	if sp, ok := post.data.(telemetry.Spanned); ok {
		sp.TelemetrySpan().MarkOnce("post", p.Now())
	}
	// The transmission record (the paper's T3 step).
	rec := &txRecord{
		msgID:  h.msgID,
		dst:    h.dst,
		tag:    h.tag,
		length: h.length,
		data:   post.data,
		nfrag:  fragCountFor(h.length, fw.maxFrag()),
		rto:    fw.ep.Cfg.Rel.RTO,
		cond:   sim.NewCond(fw.eng, "emp.txwindow"),
	}
	fw.records[rec.msgID] = rec

	window := fw.ep.Cfg.Rel.SendWindow
	for rec.sent < rec.nfrag && !rec.failed {
		if fw.destInflight[rec.dst] >= window {
			ok := fw.txWindow.WaitForTimeout(p, rec.rto, func() bool {
				return fw.destInflight[rec.dst] < window || rec.failed
			})
			if !ok && !rec.failed && rec.sent > rec.acked {
				// Window stalled a full RTO with our own fragments
				// unacknowledged: go-back-N resend. (A stall caused
				// purely by other records' in-flight fragments is not
				// this record's failure and burns no retry.)
				fw.resend(p, rec)
			}
			continue
		}
		fw.sendFrag(p, rec, rec.sent)
		rec.sent++
		fw.destInflight[rec.dst]++
	}
	if rec.failed {
		h.complete(StatusFailed)
		return
	}
	// Local completion: all fragments handed to the MAC. Reliability
	// continues via the record until the receiver NIC acks everything.
	fw.eng.After(fw.n.Cfg.HostNotify, func() { h.complete(StatusOK) })
	if rec.acked >= rec.nfrag {
		fw.retire(rec)
	} else {
		fw.armTimer(rec)
	}
}

func (fw *firmware) sendFrag(p *sim.Proc, rec *txRecord, seq int) {
	fw.n.WaitTxRoom(p)
	p.Sleep(fw.n.Cfg.TxPerFrame)
	fl := fragLen(rec.length, seq, fw.maxFrag())
	fw.n.DMA(p, fl) // host memory -> NIC, zero-copy from the user buffer
	wf := &WireFrame{
		Kind:    DataFrame,
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
			sp.TelemetrySpan().MarkOnce("wire", p.Now())
		}
	}
	fw.eng.Tracef(fw.n.Name, "tx data dst=%d tag=%d msg=%d frag=%d/%d len=%d", rec.dst, rec.tag, rec.msgID, seq+1, rec.nfrag, fl)
	f := &ethernet.Frame{
		Src:        fw.ep.addr,
		Dst:        rec.dst,
		PayloadLen: wireBytes(fl),
		Payload:    wf,
		Flow:       uint32(rec.tag),
	}
	if fw.n.FaultFlipDesc() {
		// A flipped transmit descriptor corrupts this transmission only:
		// the frame fails the receiver's FCS check and the retransmission
		// (a fresh descriptor fetch) goes out clean.
		f.Corrupt = true
		fw.eng.Tracef(fw.n.Name, "tx descriptor flipped (fault) msg=%d frag=%d", rec.msgID, seq)
	}
	fw.n.Transmit(f)
}

// resend retransmits every sent-but-unacknowledged fragment (go-back-N)
// and backs off the retransmission timeout.
func (fw *firmware) resend(p *sim.Proc, rec *txRecord) {
	if rec.acked >= rec.sent {
		return // nothing outstanding
	}
	rec.retries++
	if rec.retries > fw.ep.Cfg.Rel.MaxRetries {
		rec.failed = true
		fw.SendsFailed.Inc()
		fw.eng.Tracef(fw.n.Name, "SEND FAILED dst=%d tag=%d msg=%d after %d retries",
			rec.dst, rec.tag, rec.msgID, rec.retries-1)
		fw.ep.notifyEvent(ProtoEvent{Kind: "emp-send-failed", Dst: rec.dst, Tag: rec.tag,
			Retries: rec.retries - 1})
		fw.releaseInflight(rec.dst, rec.sent-rec.acked)
		fw.retire(rec)
		rec.cond.Broadcast()
		fw.txWindow.Broadcast()
		if fn := fw.ep.onSendFailure; fn != nil {
			dst, tag, id := rec.dst, rec.tag, rec.msgID
			fw.eng.After(fw.n.Cfg.HostNotify, func() { fn(dst, tag, id) })
		}
		return
	}
	fw.resendStreak[rec.dst]++
	fw.ep.notifyEvent(ProtoEvent{Kind: "emp-rexmit", Dst: rec.dst, Tag: rec.tag,
		Retries: rec.retries, Frags: rec.sent - rec.acked})
	fw.eng.Tracef(fw.n.Name, "REXMIT dst=%d msg=%d frags %d..%d retry=%d", rec.dst, rec.msgID, rec.acked, rec.sent, rec.retries)
	for seq := rec.acked; seq < rec.sent; seq++ {
		fw.Retransmits.Inc()
		fw.sendFrag(p, rec, seq)
	}
	rec.rto *= sim.Duration(fw.ep.Cfg.Rel.RTOBackoff)
	if rec.rto > fw.ep.Cfg.Rel.MaxRTO {
		rec.rto = fw.ep.Cfg.Rel.MaxRTO
	}
	if rec.sent >= rec.nfrag {
		fw.armTimer(rec)
	}
}

func (fw *firmware) armTimer(rec *txRecord) {
	rec.timer.Cancel()
	id := rec.msgID
	rec.timer = fw.eng.After(rec.rto, func() { fw.scheduleResend(id) })
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

func (fw *firmware) recvLoop(p *sim.Proc) {
	for {
		op, ok := fw.rxWork.Get(p)
		if !ok {
			return
		}
		fw.n.StallIfWedged(p)
		switch {
		case op.frame != nil:
			fw.handleFrame(p, op.frame)
		case op.post != nil:
			fw.handleRecvPost(p, op.post)
		case op.unpost != nil:
			fw.handleUnpost(p, op.unpost)
		case op.uqFree > 0:
			fw.uqSlots += op.uqFree
		}
	}
}

func (fw *firmware) handleFrame(p *sim.Proc, f *ethernet.Frame) {
	wf, ok := f.Payload.(*WireFrame)
	if !ok {
		fw.FramesDropped.Inc()
		return
	}
	switch wf.Kind {
	case AckFrame:
		fw.handleAck(p, wf)
	case NackFrame:
		fw.handleNack(p, wf)
	case DataFrame:
		fw.handleData(p, wf)
	}
}

func (fw *firmware) handleAck(p *sim.Proc, wf *WireFrame) {
	p.Sleep(fw.ep.Cfg.AckRxCost)
	rec := fw.records[wf.MsgID]
	if rec == nil {
		return
	}
	if wf.AckSeq > rec.acked {
		newly := wf.AckSeq - rec.acked
		rec.acked = wf.AckSeq
		rec.retries = 0 // progress: the retry budget bounds stagnation
		rec.rto = fw.ep.Cfg.Rel.RTO
		delete(fw.resendStreak, rec.dst) // progress resets the health streak
		fw.releaseInflight(rec.dst, newly)
		rec.cond.Broadcast()
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
	fw.txWindow.Broadcast()
}

func (fw *firmware) handleNack(p *sim.Proc, wf *WireFrame) {
	p.Sleep(fw.ep.Cfg.AckRxCost)
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
	fw.scheduleResend(rec.msgID)
}

func (fw *firmware) handleData(p *sim.Proc, wf *WireFrame) {
	p.Sleep(fw.n.Cfg.EffectiveRxPerFrame())

	key := reasmKey{wf.Src, wf.MsgID}
	if fw.completed[key] {
		// Late duplicate of a fully received message (its final ack was
		// lost): re-ack the whole message to silence the sender.
		fw.sendAck(p, wf.Src, wf.MsgID, wf.NFrag)
		return
	}
	r := fw.reasm[key]
	if r == nil {
		r = fw.startReassembly(p, wf, key)
		if r == nil {
			fw.FramesDropped.Inc()
			return
		}
	}
	fw.deliverFrag(p, wf, r)
}

// deliverFrag runs the per-fragment sequencing machine for one
// classified data fragment: duplicates re-ack cumulative state, gaps
// request retransmission once, in-order fragments advance the
// reassembly, pay the NIC->host DMA and complete the message.
func (fw *firmware) deliverFrag(p *sim.Proc, wf *WireFrame, r *reassembly) {
	switch {
	case wf.Seq < r.expected:
		// Duplicate fragment: re-ack cumulative state to resync sender.
		fw.sendAck(p, wf.Src, wf.MsgID, r.expected)
		return
	case wf.Seq > r.expected:
		// Gap: a fragment was lost; request retransmission once per gap.
		if r.lastNack != r.expected {
			r.lastNack = r.expected
			fw.sendNack(p, wf.Src, wf.MsgID, r.expected)
		}
		return
	}
	fw.eng.Tracef(fw.n.Name, "rx data src=%d tag=%d msg=%d frag=%d/%d", wf.Src, wf.Tag, wf.MsgID, wf.Seq+1, wf.NFrag)
	// In-order fragment.
	r.expected++
	r.lastNack = -1
	if !r.sink {
		fw.n.DMA(p, wf.FragLen) // NIC -> host buffer
	}
	r.data = wf.Data
	r.sinceAck++
	done := r.expected >= r.nfrag
	if done {
		// Notify the host before generating the ack: the ack is
		// NIC-to-NIC housekeeping and stays off the data critical path.
		fw.finish(r)
	}
	if done || r.sinceAck >= AckWindow {
		fw.sendAck(p, wf.Src, wf.MsgID, r.expected)
		r.sinceAck = 0
	}
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

// chargeTagMatch charges the NIC cost of one descriptor lookup in the
// active cost model.
func (fw *firmware) chargeTagMatch(p *sim.Proc, work int) {
	if fw.n.Cfg.HashedMatch {
		fw.n.TagMatchHashed(p, work)
	} else {
		fw.n.TagMatch(p, work)
	}
}

// startReassembly classifies the first-seen fragment of a message: tag
// match against the pre-posted descriptors (charging the lookup), the
// unexpected queue, or a drop.
func (fw *firmware) startReassembly(p *sim.Proc, wf *WireFrame, key reasmKey) *reassembly {
	d, work := fw.matchPreposted(wf.Src, wf.Tag, -1)
	fw.chargeTagMatch(p, work)
	if sp, ok := wf.Data.(telemetry.Spanned); ok {
		sp.TelemetrySpan().MarkOnce("match", p.Now())
	}

	r := &reassembly{
		key:      key,
		tag:      wf.Tag,
		msgLen:   wf.MsgLen,
		nfrag:    wf.NFrag,
		lastNack: -1,
	}
	switch {
	case d != nil:
		fw.eng.Tracef(fw.n.Name, "tag match src=%d tag=%d walked=%d", wf.Src, wf.Tag, work)
		fw.posted.remove(d)
		r.h = d.h
		if wf.MsgLen > d.h.maxLen {
			// Arriving message overflows the posted buffer: consume and
			// discard, completing the descriptor with a truncation error.
			r.sink = true
		}
	case fw.uqSlots > 0:
		fw.eng.Tracef(fw.n.Name, "unexpected src=%d tag=%d -> uq (slots left %d)", wf.Src, wf.Tag, fw.uqSlots-1)
		fw.uqSlots--
		r.uq = true
	default:
		fw.eng.Tracef(fw.n.Name, "DROP src=%d tag=%d msg=%d (no descriptor, uq full)", wf.Src, wf.Tag, wf.MsgID)
		return nil
	}
	fw.reasm[key] = r
	return r
}

// finish completes a fully reassembled message.
func (fw *firmware) finish(r *reassembly) {
	delete(fw.reasm, r.key)
	fw.markCompleted(r.key)
	msg := Message{Src: r.key.src, Tag: r.tag, Len: r.msgLen, Data: r.data}
	notify := fw.n.Cfg.HostNotify
	switch {
	case r.sink:
		fw.Truncated.Inc()
		h := r.h
		fw.eng.After(notify, func() { h.complete(StatusTruncated, Message{}) })
	case r.h != nil:
		fw.MsgsDelivered.Inc()
		h := r.h
		fw.eng.After(notify, func() { h.complete(StatusOK, msg) })
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
			delay := notify + fw.ep.Host.CopyTime(msg.Len)
			fw.eng.After(delay, func() { h.complete(StatusOK, msg) })
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
		if fw.uqNotify != nil {
			fw.uqNotify.Notify()
		}
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
	if len(fw.completedRing) >= completedRingCap {
		old := fw.completedRing[0]
		fw.completedRing = fw.completedRing[1:]
		delete(fw.completed, old)
	}
	fw.completed[key] = true
	fw.completedRing = append(fw.completedRing, key)
}

func (fw *firmware) handleRecvPost(p *sim.Proc, h *RecvHandle) {
	p.Sleep(fw.n.Cfg.RxPostHandle)

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
		delay := fw.n.Cfg.HostNotify + fw.ep.Host.CopyTime(m.Len)
		fw.eng.After(delay, func() { h.complete(StatusOK, m) })
		return
	}
	d := &recvDesc{h: h}
	h.desc = d
	fw.posted.add(d)
}

func (fw *firmware) handleUnpost(p *sim.Proc, op *unpostOp) {
	p.Sleep(fw.n.Cfg.RxPostHandle)
	// h.desc links back to the live table entry; a descriptor already
	// consumed by a match has been unlinked (tbl cleared) and must not
	// be cancelled.
	if d := op.h.desc; d != nil && d.tbl == fw.posted {
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
	fw.n.Ring(func() {
		fw.rxWork.TryPut(rxOp{uqFree: 1})
	})
	return m, true
}

func (fw *firmware) sendAck(p *sim.Proc, dst ethernet.Addr, msgID uint64, ackSeq int) {
	p.Sleep(fw.ep.Cfg.AckTxCost)
	fw.AcksSent.Inc()
	fw.n.Transmit(&ethernet.Frame{
		Src:        fw.ep.addr,
		Dst:        dst,
		PayloadLen: AckFrameBytes,
		Payload: &WireFrame{
			Kind:   AckFrame,
			Src:    fw.ep.addr,
			MsgID:  msgID,
			AckSeq: ackSeq,
		},
	})
}

func (fw *firmware) sendNack(p *sim.Proc, dst ethernet.Addr, msgID uint64, from int) {
	p.Sleep(fw.ep.Cfg.AckTxCost)
	fw.NacksSent.Inc()
	fw.n.Transmit(&ethernet.Frame{
		Src:        fw.ep.addr,
		Dst:        dst,
		PayloadLen: AckFrameBytes,
		Payload: &WireFrame{
			Kind:   NackFrame,
			Src:    fw.ep.addr,
			MsgID:  msgID,
			AckSeq: from,
		},
	})
}

package tcpip

import (
	"strconv"

	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// connSpan pins a latency span to the absolute stream offset its write
// ends at, on both the send side (matched to emitted segments) and the
// receive side (retired as the reader consumes past it).
type connSpan struct {
	end  int64
	span *telemetry.Span
}

// maxConnSpans bounds the per-connection span queues; a stalled reader
// sheds the oldest spans rather than growing without bound.
const maxConnSpans = 256

// Connection states.
const (
	stateClosed = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
)

// Conn is one TCP connection endpoint.
type Conn struct {
	st    *Stack
	lport int
	raddr ethernet.Addr
	rport int
	// id names this connection for telemetry: local addr:port to peer
	// addr:port.
	id    string
	state int
	err   error

	// Send side. sndbuf.Base() is SND.UNA; sndNxt is the next byte to
	// transmit. All offsets are absolute.
	sndbuf    *stream.Buffer
	sndNxt    int64
	cwnd      int
	ssthresh  int
	rwnd      int
	dupAcks   int
	rexmits   int // consecutive RTO fires; reset on ack progress
	rtoTimer  sim.Event
	finSeq    int64 // offset of our FIN; -1 until close
	finSent   bool
	finAcked  bool
	closeUser bool
	// rdShut: shutdown(SHUT_RD) — reads return EOF, buffered and later
	// arrivals are discarded (but still acked, keeping the window open so
	// the peer's writer is not wedged).
	rdShut bool

	// Receive side. rcvbuf.End() is RCV.NXT (in-order only; out-of-order
	// segments are dropped and recovered by retransmission). advEdge is
	// the highest RCV.NXT+window ever advertised: data below it was
	// promised buffer space and must be accepted even if later
	// advertisements shrank the window.
	rcvbuf     *stream.Buffer
	rcvBufCap  int
	advEdge    int64
	peerFinSeq int64 // -1 until the peer's FIN arrives
	eof        bool
	// eofSeen: a read has returned the 0-length end-of-stream; the
	// readable edge is spent, so PollIn stops asserting (see the
	// substrate Conn for the poller-storm rationale).
	eofSeen     bool
	pendingAcks int
	delAck      sim.Event

	rcvReady    sim.Cond
	sndReady    sim.Cond
	established sim.Cond
	// src feeds registered pollers: readiness transitions fire it with
	// the event class, waking only consumers registered on this socket.
	src sock.NoteSource

	// Round-trip estimation (Jacobson/Karels, with Karn's rule: samples
	// from retransmitted data are discarded). srtt == 0 means no sample
	// yet.
	srtt     sim.Duration
	rttvar   sim.Duration
	rttSeq   int64    // ack level that completes the in-flight sample
	rttStart sim.Time // when the timed segment was emitted
	rttValid bool

	// lastEmit enforces per-connection in-order wire emission: data
	// segments are charged in two contexts (process-context sendmsg and
	// kernel-context ack-clocked output) whose completion times can
	// invert; the receiver is in-order-only, so an inversion would look
	// like loss.
	lastEmit sim.Time

	// noDelay disables the Nagle algorithm on this connection
	// (TCP_NODELAY), which latency-sensitive servers set to avoid the
	// Nagle/delayed-ack interaction on partial final segments.
	noDelay bool

	// rdl/wdl are the absolute read/write deadlines (sock.Deadliner,
	// the model's SO_RCVTIMEO/SO_SNDTIMEO); zero means none. Consulted
	// when an operation blocks.
	rdl, wdl sim.Time

	// spanQ holds latency spans for written-but-unacked bytes on the
	// send side; rcvSpanQ holds spans for delivered-but-unread bytes on
	// the receive side. Both oldest-first.
	spanQ    []connSpan
	rcvSpanQ []connSpan
}

// flight returns the connection's flight recorder.
func (c *Conn) flight() *telemetry.Recorder {
	return c.st.Tel.Flight(c.id)
}

// popReadSpans retires latency spans whose payload the reader has fully
// consumed, marking the read wake instant and folding the decomposition
// into the host's histograms.
func (c *Conn) popReadSpans(now sim.Time) {
	for len(c.rcvSpanQ) > 0 && c.rcvSpanQ[0].end <= c.rcvbuf.Base() {
		sp := c.rcvSpanQ[0].span
		c.rcvSpanQ = c.rcvSpanQ[1:]
		sp.Mark("read", now)
		c.st.Tel.RecordSpan(sp)
	}
}

// SetNoDelay toggles TCP_NODELAY on the connection.
func (c *Conn) SetNoDelay(v bool) { c.noDelay = v }

// SetDeadline implements sock.Deadliner.
func (c *Conn) SetDeadline(t sim.Time) { c.rdl, c.wdl = t, t }

// SetReadDeadline implements sock.Deadliner.
func (c *Conn) SetReadDeadline(t sim.Time) { c.rdl = t }

// SetWriteDeadline implements sock.Deadliner.
func (c *Conn) SetWriteDeadline(t sim.Time) { c.wdl = t }

func newConn(st *Stack, lport int, raddr ethernet.Addr, rport int) *Conn {
	st.nextISS += 1 << 16
	iss := st.nextISS
	c := &Conn{
		st:          st,
		lport:       lport,
		raddr:       raddr,
		rport:       rport,
		id:          connID(st.addr, lport, raddr, rport),
		sndbuf:      stream.NewBuffer(iss + 1), // +1: SYN consumes iss
		sndNxt:      iss + 1,
		cwnd:        initialCwnd * MSS,
		ssthresh:    64 << 10,
		rwnd:        MSS, // until the peer advertises
		finSeq:      -1,
		peerFinSeq:  -1,
		rcvBufCap:   st.Cfg.RcvBuf,
		rcvReady:    sim.MakeCond(st.Eng, "tcp.rcv"),
		sndReady:    sim.MakeCond(st.Eng, "tcp.snd"),
		established: sim.MakeCond(st.Eng, "tcp.est"),
	}
	return c
}

// connID formats a connection's id, "laddr:lport-raddr:rport".
func connID(laddr ethernet.Addr, lport int, raddr ethernet.Addr, rport int) string {
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(b, int64(laddr), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(lport), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(raddr), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(rport), 10)
	return string(b)
}

func (c *Conn) key() connKey {
	return connKey{lport: c.lport, raddr: c.raddr, rport: c.rport}
}

// LocalAddr implements sock.Conn.
func (c *Conn) LocalAddr() sock.Addr { return c.st.addr }

// RemoteAddr implements sock.Conn.
func (c *Conn) RemoteAddr() sock.Addr { return c.raddr }

// readable reports whether Read would return without blocking: data
// buffered, EOF, or error.
func (c *Conn) readable() bool {
	return c.rcvbuf != nil && (c.rcvbuf.Len() > 0 || c.err != nil || (c.eof && !c.eofSeen))
}

// writable reports whether Write would queue bytes without blocking on
// socket-buffer space (or return immediately with an error).
func (c *Conn) writable() bool {
	if c.err != nil || c.state == stateClosed {
		return true
	}
	if c.state != stateEstablished && c.state != stateCloseWait {
		return false
	}
	return c.sndbuf.Len() < c.st.Cfg.SndBuf
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

// advWindow is the receive window to advertise.
func (c *Conn) advWindow() int {
	w := c.rcvBufCap - c.rcvbufLen()
	if w < 0 {
		w = 0
	}
	return w
}

// advertise returns the window for an outgoing segment and records the
// promise edge: data up to RCV.NXT+window must be accepted later.
func (c *Conn) advertise() int {
	w := c.advWindow()
	if c.rcvbuf != nil {
		if edge := c.rcvbuf.End() + int64(w); edge > c.advEdge {
			c.advEdge = edge
		}
	}
	return w
}

func (c *Conn) rcvbufLen() int {
	if c.rcvbuf == nil {
		return 0
	}
	return c.rcvbuf.Len()
}

// inflight is the unacknowledged byte count.
func (c *Conn) inflight() int { return int(c.sndNxt - c.sndbuf.Base()) }

// sendSYN transmits the initial SYN, charged to the caller.
func (c *Conn) sendSYN(p *sim.Proc, synAck bool) {
	flags := flagSYN
	ack := int64(0)
	if synAck {
		flags |= flagACK
		ack = c.rcvbuf.End()
		c.flight().Record(c.st.Eng.Now(), "syn-ack", "")
	} else {
		c.flight().Record(c.st.Eng.Now(), "syn", "")
	}
	seg := &Segment{
		Src: c.st.addr, Dst: c.raddr,
		SrcPort: c.lport, DstPort: c.rport,
		Flags: flags, Seq: c.sndbuf.Base() - 1, Ack: ack, Wnd: c.st.Cfg.RcvBuf,
	}
	if p != nil {
		p.Sleep(txSegCost + driverTx)
		c.st.transmitAt(p.Now(), seg)
	} else {
		done := c.st.Host.ChargeIRQ(txSegCost + driverTx)
		c.st.transmitAt(done, seg)
	}
}

// input processes one received segment. Runs in event context at softirq
// completion time.
func (c *Conn) input(seg *Segment) {
	if seg.Flags&flagRST != 0 {
		// A reset answering our SYN is a refusal (nobody home on that
		// port), not a reset of an established conversation.
		c.flight().Record(c.st.Eng.Now(), "rst-rcvd", "")
		if c.state == stateSynSent {
			c.fail(sock.ErrRefused)
		} else {
			c.fail(sock.ErrReset)
		}
		return
	}
	switch c.state {
	case stateSynSent:
		if seg.Flags&(flagSYN|flagACK) == flagSYN|flagACK && seg.Ack == c.sndbuf.Base() {
			c.rcvbuf = stream.NewBuffer(seg.Seq + 1)
			c.advEdge = c.rcvbuf.End() + int64(c.rcvBufCap)
			c.rwnd = seg.Wnd
			c.state = stateEstablished
			c.ackNow()
			c.established.Broadcast()
			c.src.Fire(sock.PollIn | sock.PollOut)
		}
		return
	case stateSynRcvd:
		if seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0 {
			// Retransmitted SYN: our SYN-ACK was lost; resend it.
			c.sendSYN(nil, true)
			return
		}
		if seg.Flags&flagACK != 0 && seg.Ack == c.sndbuf.Base() {
			c.state = stateEstablished
			c.established.Broadcast()
			if l, ok := c.st.listeners[c.lport]; ok {
				l.connEstablished(c)
			}
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	case stateClosed:
		return
	}

	progress := false

	// --- ACK processing ---
	if seg.Flags&flagACK != 0 {
		una := c.sndbuf.Base()
		ackBytes := seg.Ack - una
		finAckedNow := false
		if c.finSent && seg.Ack > c.finSeq {
			ackBytes-- // the FIN's virtual byte
			finAckedNow = true
		}
		if ackBytes > 0 {
			c.sndbuf.TrimTo(una + ackBytes)
			for len(c.spanQ) > 0 && c.spanQ[0].end <= c.sndbuf.Base() {
				c.spanQ = c.spanQ[1:]
			}
			c.dupAcks = 0
			c.rexmits = 0
			progress = true
			if c.rttValid && seg.Ack >= c.rttSeq {
				c.rttValid = false
				c.rttSample(c.st.Eng.Now().Sub(c.rttStart))
			}
			// Congestion window growth.
			if c.cwnd < c.ssthresh {
				c.cwnd += int(ackBytes) // slow start
			} else {
				c.cwnd += MSS * MSS / c.cwnd // congestion avoidance
			}
			c.sndReady.Broadcast()
			c.src.Fire(sock.PollOut)
		} else if seg.Len == 0 && c.inflight() > 0 && seg.Ack == una && seg.Wnd == c.rwnd {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
		if finAckedNow && !c.finAcked {
			c.finAcked = true
			c.rexmits = 0
			progress = true
			switch c.state {
			case stateFinWait1:
				c.state = stateFinWait2
			case stateLastAck:
				c.teardown()
			}
			// A lingering Close blocks on sndReady until the FIN is acked.
			c.sndReady.Broadcast()
			c.src.Fire(sock.PollOut)
		}
		if c.inflight() == 0 && !(c.finSent && !c.finAcked) {
			c.rtoTimer.Cancel()
		} else if progress {
			c.armRTO()
		}
	}
	c.rwnd = seg.Wnd

	// --- Data ---
	if seg.Len > 0 && c.rcvbuf != nil {
		switch {
		case seg.Seq == c.rcvbuf.End() && seg.Seq+int64(seg.Len) <= c.advEdge:
			// Append piecewise so every object lands at its original
			// stream offset, whatever segmentation carried it here.
			off := 0
			for _, so := range seg.Objs {
				c.rcvbuf.Append(so.End-off, so.Obj)
				off = so.End
			}
			c.rcvbuf.Append(seg.Len-off, nil)
			// In-order acceptance happens exactly once per byte range, so
			// the "deliver" mark fires once even under retransmission.
			for _, ss := range seg.Spans {
				ss.Span.MarkOnce("deliver", c.st.Eng.Now())
				if !c.rdShut && len(c.rcvSpanQ) < maxConnSpans {
					c.rcvSpanQ = append(c.rcvSpanQ, connSpan{end: seg.Seq + int64(ss.End), span: ss.Span})
				}
			}
			if c.rdShut {
				// shutdown(SHUT_RD): ack and discard, so the peer's writer
				// keeps its window instead of stalling against a reader
				// that will never come.
				c.rcvbuf.Read(c.rcvbuf.Len())
			}
			c.scheduleAck(seg.Flags&flagPSH != 0)
			c.rcvReady.Broadcast()
			c.src.Fire(sock.PollIn)
		default:
			// Out of order, duplicate, or no buffer space: drop and
			// send an immediate duplicate ack.
			if seg.Seq > c.rcvbuf.End() {
				c.st.DroppedSegs.Inc()
			}
			c.ackNow()
		}
	}

	// --- FIN ---
	if seg.Flags&flagFIN != 0 {
		finSeq := seg.Seq + int64(seg.Len)
		if c.rcvbuf != nil && finSeq == c.rcvbuf.End() && c.peerFinSeq < 0 {
			c.peerFinSeq = finSeq
			c.eof = true
			c.flight().Record(c.st.Eng.Now(), "peer-fin", "")
			switch c.state {
			case stateEstablished:
				c.state = stateCloseWait
			case stateFinWait1:
				// Simultaneous close; wait for our FIN's ack.
			case stateFinWait2:
				c.teardown()
			}
			c.ackNow()
			c.rcvReady.Broadcast()
			c.src.Fire(sock.PollIn)
		} else if c.peerFinSeq >= 0 && finSeq == c.peerFinSeq {
			c.ackNow() // retransmitted FIN: our ack was lost
		}
	}

	// The window may have opened: push more data from kernel context.
	c.output(nil)
}

// scheduleAck implements delayed acknowledgments.
func (c *Conn) scheduleAck(push bool) {
	c.pendingAcks++
	if c.pendingAcks >= delAckSegs {
		c.ackNow()
		return
	}
	if !c.delAck.Pending() {
		c.delAck = c.st.Eng.AtArg(c.st.Eng.Now().Add(delAckTimeout), delAckFired, c)
	}
}

// delAckFired is the fn of a connection's delayed-ack timer; its arg is
// the *Conn.
func delAckFired(a any) {
	c := a.(*Conn)
	if c.pendingAcks > 0 {
		c.st.DelayedAcks.Inc()
		c.ackNow()
	}
}

// ackNow emits an immediate ack from kernel context.
func (c *Conn) ackNow() {
	c.pendingAcks = 0
	c.delAck.Cancel()
	done := c.st.Host.ChargeIRQ(txSegCost + driverTx)
	ack := int64(0)
	if c.rcvbuf != nil {
		ack = c.rcvbuf.End()
		if c.peerFinSeq >= 0 && ack == c.peerFinSeq {
			ack++ // acknowledge the FIN's virtual byte
		}
	}
	c.st.transmitAt(done, &Segment{
		Src: c.st.addr, Dst: c.raddr,
		SrcPort: c.lport, DstPort: c.rport,
		Flags: flagACK, Seq: c.sndNxt, Ack: ack, Wnd: c.advertise(),
	})
}

// output transmits whatever the send window allows. If p is non-nil the
// per-segment cost is charged to the calling process (tcp_sendmsg path);
// otherwise it is charged to the kernel's interrupt context (ack-clocked
// output).
func (c *Conn) output(p *sim.Proc) {
	if c.state != stateEstablished && c.state != stateCloseWait &&
		c.state != stateFinWait1 && c.state != stateLastAck {
		return
	}
	for {
		window := c.cwnd
		if c.rwnd < window {
			window = c.rwnd
		}
		avail := int(c.sndbuf.End() - c.sndNxt)
		room := window - c.inflight()
		segLen := MSS
		if avail < segLen {
			segLen = avail
		}
		if room < segLen {
			segLen = room
		}
		if segLen <= 0 || avail <= 0 {
			break
		}
		if !c.noDelay && segLen < MSS && c.inflight() > 0 {
			break // Nagle: don't send a partial segment while data is unacked
		}
		// Reserve the sequence range before emit's cost charge can yield
		// the processor: a concurrent kernel-context output must not
		// reuse or skip this range.
		seq := c.sndNxt
		c.sndNxt += int64(segLen)
		if !c.rttValid {
			c.rttValid = true
			c.rttSeq = seq + int64(segLen)
			c.rttStart = c.st.Eng.Now()
		}
		c.armRTO()
		c.emit(p, seq, segLen, avail == segLen)
	}
	// Emit our FIN once everything (including retransmissions) is out.
	if c.finSeq >= 0 && !c.finSent && c.sndNxt == c.sndbuf.End() {
		c.finSent = true
		c.flight().Record(c.st.Eng.Now(), "fin-sent", "")
		done := c.reserveEmit(p)
		c.st.transmitAt(done, &Segment{
			Src: c.st.addr, Dst: c.raddr,
			SrcPort: c.lport, DstPort: c.rport,
			Flags: flagFIN | flagACK, Seq: c.sndNxt, Ack: c.peerAck(), Wnd: c.advertise(),
		})
		c.armRTO()
	}
}

func (c *Conn) peerAck() int64 {
	if c.rcvbuf == nil {
		return 0
	}
	ack := c.rcvbuf.End()
	if c.peerFinSeq >= 0 && ack == c.peerFinSeq {
		ack++
	}
	return ack
}

// reserveEmit charges the per-segment output cost and returns the wire
// emission time, claiming the per-connection emission slot BEFORE any
// process-context sleep: segments are charged in two contexts (sendmsg
// and softirq) whose completion times can interleave, and the receiver
// is in-order-only, so emission must stay monotonic per connection.
func (c *Conn) reserveEmit(p *sim.Proc) sim.Time {
	cost := txSegCost + driverTx
	var done sim.Time
	if p != nil {
		done = p.Now().Add(sim.Duration(cost))
		if done < c.lastEmit {
			done = c.lastEmit
		}
		c.lastEmit = done
		p.Sleep(cost)
		return done
	}
	done = c.st.Host.ChargeIRQ(cost)
	if done < c.lastEmit {
		done = c.lastEmit
	}
	c.lastEmit = done
	return done
}

// emit transmits one data segment [seq, seq+n).
func (c *Conn) emit(p *sim.Proc, seq int64, n int, push bool) {
	flags := flagACK
	if push {
		flags |= flagPSH
	}
	var objs []SegObj
	for _, o := range c.sndbuf.ObjectsAt(seq, seq+int64(n)) {
		objs = append(objs, SegObj{End: int(o.End - seq), Obj: o.Obj})
	}
	var spans []SegSpan
	for _, cs := range c.spanQ {
		if cs.end > seq && cs.end <= seq+int64(n) {
			spans = append(spans, SegSpan{End: int(cs.end - seq), Span: cs.span})
		}
	}
	done := c.reserveEmit(p)
	for _, ss := range spans {
		// First emission stamps the wire time; retransmissions re-carry
		// the span but MarkOnce keeps the original instant.
		ss.Span.MarkOnce("wire", done)
	}
	c.pendingAcks = 0 // data segments piggyback the ack
	c.delAck.Cancel()
	c.st.transmitAt(done, &Segment{
		Src: c.st.addr, Dst: c.raddr,
		SrcPort: c.lport, DstPort: c.rport,
		Flags: flags, Seq: seq, Ack: c.peerAck(), Wnd: c.advertise(),
		Len: n, Objs: objs, Spans: spans,
	})
}

// rttSample folds one round-trip measurement into the smoothed
// estimator: srtt += (s-srtt)/8, rttvar += (|s-srtt|-rttvar)/4.
func (c *Conn) rttSample(s sim.Duration) {
	if s < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = s
		c.rttvar = s / 2
		return
	}
	d := s - c.srtt
	if d < 0 {
		d = -d
	}
	c.rttvar += (d - c.rttvar) / 4
	c.srtt += (s - c.srtt) / 8
}

// rto is the adaptive retransmission timeout: srtt + 4*rttvar, clamped
// to the floor and ceiling.
func (c *Conn) rto() sim.Duration {
	v := c.srtt + 4*c.rttvar
	if v < minRTO {
		v = minRTO
	}
	if v > maxRTO {
		v = maxRTO
	}
	return v
}

func (c *Conn) armRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = c.st.Eng.AtArg(c.st.Eng.Now().Add(c.rto()), rtoFired, c)
}

// rtoFired is the fn of a connection's retransmission timer; its arg is
// the *Conn.
func rtoFired(a any) { a.(*Conn).onRTO() }

// onRTO retransmits go-back-N from SND.UNA with multiplicative backoff
// of the congestion window.
func (c *Conn) onRTO() {
	if c.inflight() == 0 && !(c.finSent && !c.finAcked) {
		return
	}
	c.rexmits++
	if c.rexmits > maxRexmits {
		// The peer has been unreachable for the whole backoff sequence:
		// give up and reset the connection so blocked callers wake.
		c.st.Eng.Tracef("tcp", "conn %d:%d->%d:%d failed after %d rexmits",
			c.st.addr, c.lport, c.raddr, c.rport, c.rexmits-1)
		c.fail(sock.ErrReset)
		return
	}
	c.st.Rexmits.Inc()
	c.flight().Recordf(c.st.Eng.Now(), "rto", "rexmits=%d", c.rexmits)
	c.rttValid = false // Karn's rule: never time retransmitted data
	c.ssthresh = c.inflight() / 2
	if c.ssthresh < 2*MSS {
		c.ssthresh = 2 * MSS
	}
	c.cwnd = MSS
	c.sndNxt = c.sndbuf.Base()
	c.finSent = false
	c.output(nil)
	c.armRTO()
}

// fastRetransmit resends the first unacked segment on triple-dup-ack.
func (c *Conn) fastRetransmit() {
	c.st.FastRetransmits.Inc()
	c.flight().Record(c.st.Eng.Now(), "fast-rexmit", "")
	c.ssthresh = c.inflight() / 2
	if c.ssthresh < 2*MSS {
		c.ssthresh = 2 * MSS
	}
	c.cwnd = c.ssthresh
	n := int(c.sndbuf.End() - c.sndbuf.Base())
	if n > MSS {
		n = MSS
	}
	if n > 0 {
		c.emit(nil, c.sndbuf.Base(), n, false)
	}
}

func (c *Conn) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.flight().Recordf(c.st.Eng.Now(), "fail", "%v", err)
	if err == sock.ErrReset {
		// The connection died under the application: capture the event
		// history as a failure artifact.
		c.st.Tel.DumpFlight(c.id, "reset")
	}
	c.spanQ = nil
	c.rcvSpanQ = nil
	c.rtoTimer.Cancel()
	c.delAck.Cancel()
	was := c.state
	c.state = stateClosed
	c.rcvReady.Broadcast()
	c.sndReady.Broadcast()
	c.established.Broadcast()
	c.src.Fire(sock.PollIn | sock.PollOut | sock.PollErr)
	if was != stateClosed {
		c.st.conns.remove(c.key())
	}
}

// teardown removes a cleanly closed connection (TIME_WAIT is skipped in
// the model).
func (c *Conn) teardown() {
	c.rtoTimer.Cancel()
	c.delAck.Cancel()
	if c.state != stateClosed {
		c.state = stateClosed
		c.st.conns.remove(c.key())
	}
}

// Read implements sock.Conn: blocking receive with the kernel-to-user
// copy charged at copy-and-checksum bandwidth.
func (c *Conn) Read(p *sim.Proc, max int) (int, []any, error) {
	c.st.Host.Syscall(p)
	if c.rcvbuf == nil {
		return 0, nil, sock.ErrClosed
	}
	if c.rdShut {
		c.eofSeen = true
		return 0, nil, nil // shutdown(SHUT_RD): reads see EOF
	}
	blocked := c.rcvbuf.Len() == 0 && !c.eof && c.err == nil
	if !c.rcvReady.WaitUntil(p, c.rdl, func() bool {
		return c.rcvbuf.Len() > 0 || c.eof || c.err != nil || c.rdShut
	}) {
		c.flight().Record(p.Now(), "deadline", "read")
		return 0, nil, sock.ErrTimeout
	}
	if blocked {
		p.Sleep(c.st.Host.Wakeup())
	}
	if c.err != nil {
		return 0, nil, c.err
	}
	if c.rcvbuf.Len() == 0 {
		c.eofSeen = true
		return 0, nil, nil // EOF
	}
	n := c.rcvbuf.Len()
	if n > max {
		n = max
	}
	wasFull := c.advWindow() < MSS
	p.Sleep(c.st.copyTime(n))
	n, objs := c.rcvbuf.Read(n)
	c.popReadSpans(p.Now())
	// Window update: if the window was effectively shut and has now
	// opened, tell the sender (avoids stalls with small buffers).
	if wasFull && c.advWindow() >= MSS && c.state != stateClosed {
		p.Sleep(txSegCost + driverTx)
		c.pendingAcks = 0
		c.delAck.Cancel()
		c.st.transmitAt(p.Now(), &Segment{
			Src: c.st.addr, Dst: c.raddr,
			SrcPort: c.lport, DstPort: c.rport,
			Flags: flagACK, Seq: c.sndNxt, Ack: c.peerAck(), Wnd: c.advertise(),
		})
	}
	return n, objs, nil
}

// Write implements sock.Conn: blocking send; returns once all n bytes
// are queued in the socket buffer (copied from user space).
func (c *Conn) Write(p *sim.Proc, n int, obj any) (int, error) {
	c.st.Host.Syscall(p)
	if c.err != nil {
		return 0, c.err
	}
	if c.state != stateEstablished && c.state != stateCloseWait {
		return 0, sock.ErrClosed
	}
	if n > 0 {
		if len(c.spanQ) >= maxConnSpans {
			c.spanQ = c.spanQ[1:]
		}
		sp := c.st.Tel.NewSpan("tcp", n, "write", p.Now())
		c.spanQ = append(c.spanQ, connSpan{end: c.sndbuf.End() + int64(n), span: sp})
	}
	written := 0
	for written < n {
		blocked := c.sndbuf.Len() >= c.st.Cfg.SndBuf && c.err == nil && c.state != stateClosed
		if !c.sndReady.WaitUntil(p, c.wdl, func() bool {
			return c.sndbuf.Len() < c.st.Cfg.SndBuf || c.err != nil || c.state == stateClosed
		}) {
			c.flight().Record(p.Now(), "deadline", "write")
			return written, sock.ErrTimeout
		}
		if blocked {
			p.Sleep(c.st.Host.Wakeup())
		}
		if c.err != nil {
			return written, c.err
		}
		if c.state == stateClosed {
			return written, sock.ErrClosed
		}
		chunk := n - written
		if room := c.st.Cfg.SndBuf - c.sndbuf.Len(); chunk > room {
			chunk = room
		}
		p.Sleep(c.st.copyTime(chunk))
		var o any
		if written+chunk >= n {
			o = obj
		}
		c.sndbuf.Append(chunk, o)
		written += chunk
		c.output(p)
	}
	return written, nil
}

// Conn implements the optional half-close face.
var _ sock.Closer = (*Conn)(nil)

// CloseWrite implements sock.Closer: shutdown(SHUT_WR) — queue the FIN
// behind everything already written; the peer drains and then sees EOF
// while our reads keep flowing.
func (c *Conn) CloseWrite(p *sim.Proc) error {
	c.st.Host.Syscall(p)
	if c.closeUser {
		return sock.ErrClosed
	}
	if c.finSeq >= 0 {
		return nil
	}
	switch c.state {
	case stateEstablished:
		c.state = stateFinWait1
	case stateCloseWait:
		c.state = stateLastAck
	default:
		return sock.ErrClosed
	}
	c.finSeq = c.sndbuf.End()
	c.output(p)
	return nil
}

// CloseRead implements sock.Closer: shutdown(SHUT_RD) — local only.
// Buffered bytes are discarded and later arrivals acked-and-dropped, so
// the peer is never wedged against a reader that has left.
func (c *Conn) CloseRead(p *sim.Proc) error {
	c.st.Host.Syscall(p)
	if c.closeUser {
		return sock.ErrClosed
	}
	if c.rdShut {
		return nil
	}
	c.rdShut = true
	if c.rcvbuf != nil && c.rcvbuf.Len() > 0 {
		c.rcvbuf.Read(c.rcvbuf.Len())
	}
	c.rcvSpanQ = nil // discarded bytes retire their spans unrecorded
	c.rcvReady.Broadcast()
	c.src.Fire(sock.PollIn)
	return nil
}

// tcpWedgeRexmits is the kernel TCP monitor's wedge bound: consecutive
// RTO fires without ack progress. Six mean the go-back-N recovery
// itself is not landing — the path or the peer is gone for all
// practical purposes, long before maxRexmits resets the connection on
// its own.
const tcpWedgeRexmits = 6

// Wedged reports whether the connection has stopped making progress,
// judged from the retransmission streak the RTO machinery already
// tracks. A closed or failed connection is wedged — it will never make
// progress again — so recovery layers treat terminal and stuck states
// uniformly. Charges no simulated time.
func (c *Conn) Wedged() bool {
	return c.err != nil || c.state == stateClosed || c.rexmits >= tcpWedgeRexmits
}

// Abort resets the connection immediately. The RST is charged to
// kernel context, so the call is safe from event context and never
// blocks; local blocked callers wake with sock.ErrReset.
func (c *Conn) Abort() { c.abort(nil) }

// abort resets the connection: emit a RST so the peer's blocked callers
// wake, then fail locally. The model's SO_LINGER expiry path.
func (c *Conn) abort(p *sim.Proc) {
	if c.state == stateClosed {
		return
	}
	c.flight().Record(c.st.Eng.Now(), "rst-sent", "")
	done := c.reserveEmit(p)
	c.st.transmitAt(done, &Segment{
		Src: c.st.addr, Dst: c.raddr,
		SrcPort: c.lport, DstPort: c.rport,
		Flags: flagRST | flagACK, Seq: c.sndNxt, Ack: c.peerAck(),
	})
	c.fail(sock.ErrReset)
}

// lingerWait blocks until our FIN (and therefore everything queued
// before it) is acknowledged, the connection fails, or the deadline
// passes — in which case the close degrades to a reset and reports
// sock.ErrTimeout, telling the caller tail delivery is unconfirmed.
func (c *Conn) lingerWait(p *sim.Proc, deadline sim.Time) error {
	c.sndReady.WaitUntil(p, deadline, func() bool {
		return c.finAcked || c.err != nil || c.state == stateClosed
	})
	if !c.finAcked && c.err == nil && c.state != stateClosed {
		c.st.LingerExpired.Inc()
		c.flight().Record(p.Now(), "linger-expired", "")
		c.abort(p)
		return sock.ErrTimeout
	}
	return nil
}

// Close implements sock.Conn: send FIN after draining. Without
// Cfg.Linger the call returns at once and the kernel completes the
// close in the background; with it, Close blocks until the FIN is
// acknowledged (drain proven) or the linger deadline expires (reset,
// sock.ErrTimeout) — SO_LINGER-with-timeout semantics.
func (c *Conn) Close(p *sim.Proc) error {
	c.st.Host.Syscall(p)
	if c.closeUser {
		return nil
	}
	c.closeUser = true
	if c.finSeq < 0 {
		switch c.state {
		case stateEstablished:
			c.state = stateFinWait1
		case stateCloseWait:
			c.state = stateLastAck
		case stateSynSent, stateSynRcvd:
			c.fail(sock.ErrClosed)
			return nil
		default:
			return nil
		}
		c.finSeq = c.sndbuf.End()
		c.output(p)
	}
	if c.st.Cfg.Linger > 0 && c.state != stateClosed && c.err == nil {
		return c.lingerWait(p, p.Now().Add(c.st.Cfg.Linger))
	}
	return nil
}

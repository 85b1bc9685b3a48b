package core

import (
	"repro/internal/emp"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Datagram mode (Section 6.2): data streaming is disabled, so message
// boundaries are preserved and the substrate can avoid the extra memory
// copy. Small messages are sent eagerly and received by descriptors
// posted at read() time, giving a zero-copy path when the read is posted
// before the message arrives (messages that race ahead land in the
// unexpected queue and pay a copy when claimed). Messages above the
// rendezvous threshold synchronize with the receiver first and then DMA
// straight into the user buffer. Responsibility for avoiding deadlock
// rests with the application, as the paper states.

// dgMaxEager bounds the receive descriptor posted by a Datagram read;
// arriving messages beyond the read's buffer are truncated (dropped), as
// with UDP.

func (c *Conn) writeDG(p *sim.Proc, n int, obj any) (int, error) {
	if n > rendezvousThreshold || c.opts.ForceRendezvous {
		return c.writeRendezvous(p, n, obj)
	}
	c.sub.MsgsSent.Inc()
	sp := c.sub.Tel.NewSpan("eager", n, "write", p.Now())
	st := c.send(p, c.dataOutTag, headerBytes+n,
		&header{Kind: kindData, Len: n, Obj: obj, Span: sp}, c.sendKey)
	if st != emp.StatusOK {
		c.fail(sock.ErrReset)
		c.abort(p)
		return 0, c.err
	}
	return n, nil
}

// writeRendezvous implements the sender side of Figure 6: request, wait
// for the receiver's acknowledgment (sent when it reaches its read()
// call), then send the data message straight into the receiver's posted
// user buffer.
func (c *Conn) writeRendezvous(p *sim.Proc, n int, obj any) (int, error) {
	c.sub.RendezvousOps.Inc()
	sp := c.sub.Tel.NewSpan("rend", n, "write", p.Now())
	tag := c.sub.allocTag()
	defer c.sub.freeTag(tag)
	st := c.send(p, c.dataOutTag, headerBytes,
		&header{Kind: kindRendReq, RendTag: tag, RendLen: n}, emp.KeyNone)
	if st != emp.StatusOK {
		c.fail(sock.ErrReset)
		c.abort(p)
		return 0, c.err
	}
	// Block until the matching rendezvous acknowledgment arrives.
	deadline := p.Now().Add(closeTimeout)
	for c.err == nil && !c.peerClosed {
		if ack := c.takeRendAck(tag); ack != nil {
			c.sub.MsgsSent.Inc()
			sp.Mark("rendack", p.Now())
			st = c.send(p, tag, n,
				&header{Kind: kindData, Len: n, Obj: obj, Span: sp}, c.userKey)
			if st != emp.StatusOK {
				c.fail(sock.ErrReset)
				c.abort(p)
				return 0, c.err
			}
			return n, nil
		}
		if !c.waitAckEvent(p, deadline) {
			return 0, sock.ErrTimeout
		}
		c.pollAcks(p)
	}
	if c.err != nil {
		c.abort(p)
		return 0, c.err
	}
	return 0, sock.ErrClosed
}

// takeRendAck removes and returns the queued rendezvous ack for tag.
func (c *Conn) takeRendAck(tag emp.Tag) *header {
	for i, h := range c.rendAcks {
		if h.RendTag == tag {
			c.rendAcks = append(c.rendAcks[:i], c.rendAcks[i+1:]...)
			return h
		}
	}
	return nil
}

func (c *Conn) readDG(p *sim.Proc, max int) (int, []any, error) {
	for {
		if c.cleaned {
			return 0, nil, nil
		}
		// Queued whole messages first (claimed earlier).
		if len(c.dgq) > 0 {
			m := c.dgq[0]
			c.dgq = c.dgq[1:]
			return c.deliverDG(m.n, m.obj, max)
		}
		if c.eof {
			return 0, nil, nil
		}
		// A message that raced ahead of this read sits in the
		// unexpected queue; claiming it pays the temp-to-user copy.
		if m, ok := c.sub.EP.PollUnexpected(p, c.peer, c.dataInTag, 1<<30); ok {
			n, objs, err, delivered := c.processDGMessage(p, m, max)
			if delivered {
				return n, objs, err
			}
			continue
		}
		// Post the receive with the user's buffer: the zero-copy path.
		h := c.sub.EP.PostRecv(p, c.peer, c.dataInTag, headerBytes+max, c.userKey)
		h.SetNotify(c)
		c.dgPending = h
		// Wake on completion OR connection failure: a read blocked
		// against a dead peer must return, and its descriptor must be
		// unposted rather than abandoned (§5.3). The read deadline
		// bounds the wait; an expired descriptor is likewise unposted.
		expired := !c.ready.WaitUntil(p, c.rdl, func() bool {
			return h.Status() != emp.StatusPending || c.err != nil || c.cleaned
		})
		c.dgPending = nil
		if h.Status() == emp.StatusPending {
			if c.sub.EP.Unpost(p, h) {
				if expired && c.err == nil && !c.cleaned {
					return 0, nil, sock.ErrTimeout
				}
				if c.err != nil {
					c.abort(p)
					return 0, nil, c.err
				}
				// Torn down underneath us (host drain): end-of-stream.
				return 0, nil, nil
			}
			// An arrival consumed the descriptor while the unpost was in
			// flight; fall through and process it.
		}
		m, st := c.sub.EP.WaitRecv(p, h)
		switch st {
		case emp.StatusOK:
			n, objs, err, delivered := c.processDGMessage(p, m, max)
			if delivered {
				return n, objs, err
			}
		case emp.StatusTruncated:
			// The arriving message exceeded the posted buffer and was
			// dropped by the firmware: datagram truncation.
			c.sub.DGramTruncated.Inc()
			return 0, nil, sock.ErrMessageTruncated
		case emp.StatusCancelled:
			if c.cleaned && c.err == nil {
				// Torn down underneath us (host drain): end-of-stream.
				return 0, nil, nil
			}
			c.abort(p)
			if c.err != nil {
				return 0, nil, c.err
			}
			return 0, nil, sock.ErrClosed
		case emp.StatusNoDescriptors:
			// Budget exhaustion fails the read, not the connection.
			return 0, nil, emp.ErrNoDescriptors
		default:
			c.fail(sock.ErrReset)
			c.abort(p)
			return 0, nil, c.err
		}
	}
}

// processDGMessage interprets one data-channel message in Datagram
// mode. delivered reports whether the read should return with the given
// results; false means "keep waiting" (control message consumed).
func (c *Conn) processDGMessage(p *sim.Proc, m emp.Message, max int) (int, []any, error, bool) {
	hdr, ok := m.Data.(*header)
	if !ok {
		return 0, nil, nil, false
	}
	switch hdr.Kind {
	case kindData:
		hdr.Span.Mark("read", p.Now())
		c.sub.Tel.RecordSpan(hdr.Span)
		n, objs, err := c.deliverDG(hdr.Len, hdr.Obj, max)
		return n, objs, err, true
	case kindClose:
		c.peerClosed = true
		c.eof = true
		c.flight().Record(p.Now(), "peer-close", "")
		c.Notify()
		return 0, nil, nil, true
	case kindShutdown:
		// Write-side shutdown from the peer: end-of-stream for our reads,
		// but the connection is still open — our writes keep flowing.
		c.peerShut = true
		c.eof = true
		c.flight().Record(p.Now(), "peer-shutdown", "")
		c.Notify()
		return 0, nil, nil, true
	case kindRendReq:
		n, objs, err := c.receiveRendezvous(p, hdr, max)
		return n, objs, err, true
	}
	return 0, nil, nil, false
}

// deliverDG applies datagram read semantics: a short read discards the
// message's surplus bytes.
func (c *Conn) deliverDG(n int, obj any, max int) (int, []any, error) {
	var objs []any
	if obj != nil {
		objs = []any{obj}
	}
	if n > max {
		c.sub.DGramTruncated.Inc()
		return max, objs, sock.ErrMessageTruncated
	}
	return n, objs, nil
}

// receiveRendezvous implements the receiver side of Figure 6: the
// read() call posts the descriptor for the expected data message into
// the user's buffer and sends back the acknowledgment; the data then
// DMAs directly to user space with no intermediate copy.
func (c *Conn) receiveRendezvous(p *sim.Proc, req *header, max int) (int, []any, error) {
	h := c.sub.EP.PostRecv(p, c.peer, req.RendTag, req.RendLen, c.userKey)
	h.SetNotify(c)
	c.dgPending = h
	c.send(p, c.ackOutTag, headerBytes,
		&header{Kind: kindRendAck, RendTag: req.RendTag}, emp.KeyNone)
	c.ready.WaitFor(p, func() bool {
		return h.Status() != emp.StatusPending || c.err != nil || c.cleaned
	})
	c.dgPending = nil
	if h.Status() == emp.StatusPending {
		if c.sub.EP.Unpost(p, h) {
			c.abort(p)
			return 0, nil, c.err
		}
	}
	m, st := c.sub.EP.WaitRecv(p, h)
	if st == emp.StatusCancelled && c.cleaned && c.err == nil {
		// Torn down underneath us (host drain): end-of-stream.
		return 0, nil, nil
	}
	if st != emp.StatusOK {
		c.fail(sock.ErrReset)
		c.abort(p)
		return 0, nil, c.err
	}
	hdr, _ := m.Data.(*header)
	var obj any
	if hdr != nil {
		obj = hdr.Obj
		hdr.Span.Mark("read", p.Now())
		c.sub.Tel.RecordSpan(hdr.Span)
	}
	return c.deliverDG(m.Len, obj, max)
}

// drainDGControl consumes control messages (the peer's close) from the
// data channel's unexpected queue during our own close.
func (c *Conn) drainDGControl(p *sim.Proc) {
	for {
		m, ok := c.sub.EP.PollUnexpected(p, c.peer, c.dataInTag, 1<<30)
		if !ok {
			return
		}
		if hdr, ok := m.Data.(*header); ok {
			switch hdr.Kind {
			case kindClose:
				c.peerClosed = true
				c.eof = true
			case kindShutdown:
				c.peerShut = true
				c.eof = true
			case kindData:
				// Discard in-flight data while closing.
			}
		}
	}
}

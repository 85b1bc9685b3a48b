package tcpip

import (
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/stream"
)

// Listener is a passive TCP socket. SYNs create embryonic connections
// (SYN_RCVD); completed handshakes queue on the accept backlog.
type Listener struct {
	st      *Stack
	port    int
	backlog int
	queue   *sim.FIFO[*Conn]
	closed  bool
	// src feeds registered pollers on backlog growth and close.
	src sock.NoteSource
}

func newListener(st *Stack, port, backlog int) *Listener {
	return &Listener{
		st:      st,
		port:    port,
		backlog: backlog,
		queue:   sim.NewFIFO[*Conn](st.Eng, "tcp.accept", backlog),
	}
}

// Addr implements sock.Listener.
func (l *Listener) Addr() sock.Addr { return l.st.addr }

// Port implements sock.Listener.
func (l *Listener) Port() int { return l.port }

// acceptable reports whether Accept would return without blocking.
func (l *Listener) acceptable() bool { return l.queue.Len() > 0 }

// PollState implements sock.Pollable.
func (l *Listener) PollState() sock.PollEvents {
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
func (l *Listener) PollSource() *sock.NoteSource { return &l.src }

// inputSYN handles a connection request: create the embryonic connection
// and reply SYN-ACK from kernel context.
func (l *Listener) inputSYN(seg *Segment) {
	if l.closed {
		return
	}
	c := newConn(l.st, l.port, seg.Src, seg.SrcPort)
	if existing := l.st.conns.get(c.key()); existing != nil {
		if existing.state == stateSynRcvd {
			// Retransmitted SYN: our SYN-ACK was lost; resend it.
			existing.sendSYN(nil, true)
		}
		return
	}
	c.state = stateSynRcvd
	c.rcvbuf = stream.NewBuffer(seg.Seq + 1)
	c.advEdge = c.rcvbuf.End() + int64(c.rcvBufCap)
	c.rwnd = seg.Wnd
	l.st.conns.insert(c)
	c.sendSYN(nil, true)
}

// connEstablished queues a completed handshake on the accept backlog.
func (l *Listener) connEstablished(c *Conn) {
	if l.closed || !l.queue.TryPut(c) {
		// Backlog overflow (or racing close): reset the peer — it
		// already believes the connection is established, so its next
		// operation must observe the refusal.
		done := l.st.Host.ChargeIRQ(txSegCost)
		l.st.transmitAt(done, &Segment{
			Src: l.st.addr, Dst: c.raddr,
			SrcPort: c.lport, DstPort: c.rport,
			Flags: flagRST | flagACK, Seq: c.sndNxt, Ack: c.peerAck(),
		})
		c.fail(sock.ErrRefused)
		return
	}
	l.src.Fire(sock.PollIn)
}

// Accept implements sock.Listener: block for the next established
// connection.
func (l *Listener) Accept(p *sim.Proc) (sock.Conn, error) {
	l.st.Host.Syscall(p)
	blocked := l.queue.Len() == 0
	c, ok := l.queue.Get(p)
	if !ok {
		return nil, sock.ErrClosed
	}
	if blocked {
		p.Sleep(l.st.Host.Wakeup())
	}
	return c, nil
}

// Close implements sock.Listener.
func (l *Listener) Close(p *sim.Proc) error {
	l.st.Host.Syscall(p)
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.st.listeners, l.port)
	// Refuse queued-but-unaccepted connections.
	for {
		c, ok := l.queue.TryGet()
		if !ok {
			break
		}
		c.fail(sock.ErrClosed)
	}
	l.queue.Close()
	l.src.Fire(sock.PollErr)
	return nil
}

package tcpip

import (
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/sock"
)

// udpSocket is a kernel UDP datagram socket. Datagrams larger than one
// MTU are IP-fragmented and reassembled all-or-nothing; there is no
// reliability.
type udpSocket struct {
	st     *Stack
	port   int
	queue  *sim.FIFO[recvDgram]
	reasm  map[reasmID]*dgramReasm
	closed bool
	// src feeds registered pollers on datagram arrival and close.
	src sock.NoteSource
	// Drops counts datagrams discarded because the socket buffer was
	// full or reassembly failed.
	Drops sim.Counter
}

type recvDgram struct {
	src   ethernet.Addr
	sport int
	n     int
	obj   any
}

type reasmID struct {
	src ethernet.Addr
	id  uint64
}

type dgramReasm struct {
	have     int
	nfrags   int
	total    int
	obj      any
	src      ethernet.Addr
	sport    int
	deadline sim.Time
}

// udpSocketBufDatagrams bounds queued datagrams per socket.
const udpSocketBufDatagrams = 64

// UDPOpen binds a UDP socket on port (0 picks an ephemeral port).
func (st *Stack) UDPOpen(p *sim.Proc, port int) (*udpSocket, error) {
	st.Host.Syscall(p)
	if port == 0 {
		port = st.ephemeralPort()
	}
	if _, ok := st.udps[port]; ok {
		return nil, sock.ErrInUse
	}
	u := &udpSocket{
		st:    st,
		port:  port,
		queue: sim.NewFIFO[recvDgram](st.Eng, "udp.rq", udpSocketBufDatagrams),
		reasm: make(map[reasmID]*dgramReasm),
	}
	st.udps[port] = u
	return u, nil
}

// Port reports the bound port.
func (u *udpSocket) Port() int { return u.port }

// PollState implements sock.Pollable. UDP sends never block, so a live
// socket is always writable.
func (u *udpSocket) PollState() sock.PollEvents {
	ev := sock.PollOut
	if u.queue.Len() > 0 {
		ev |= sock.PollIn
	}
	if u.closed {
		ev |= sock.PollErr
	}
	return ev
}

// PollSource implements sock.Pollable.
func (u *udpSocket) PollSource() *sock.NoteSource { return &u.src }

// SendTo transmits one datagram of n bytes to dst:port, fragmenting at
// the IP layer if needed. It is unreliable: frames lost on the fabric
// are gone.
func (u *udpSocket) SendTo(p *sim.Proc, dst ethernet.Addr, port, n int, obj any) error {
	u.st.Host.Syscall(p)
	if u.closed {
		return sock.ErrClosed
	}
	p.Sleep(u.st.copyTime(n))
	u.st.nextDgram++
	id := u.st.nextDgram
	nfrags := (n + maxUDPFragPayload - 1) / maxUDPFragPayload
	if nfrags < 1 {
		nfrags = 1
	}
	remaining := n
	for i := 0; i < nfrags; i++ {
		fl := remaining
		if fl > maxUDPFragPayload {
			fl = maxUDPFragPayload
		}
		remaining -= fl
		p.Sleep(txSegCost + driverTx)
		var o any
		if i == nfrags-1 {
			o = obj
		}
		d := &datagram{
			Src: u.st.addr, Dst: dst,
			SrcPort: u.port, DstPort: port,
			ID: id, FragIdx: i, NFrags: nfrags,
			TotalLen: n, FragLen: fl, Obj: o,
		}
		u.st.port.Transmit(&ethernet.Frame{
			Src: u.st.addr, Dst: dst, PayloadLen: d.wireLen(), Payload: d,
			Flow: flowLabel(u.port, port),
		})
	}
	return nil
}

// RecvFrom blocks for the next datagram, returning its size (possibly
// larger than max — the surplus is discarded, UDP-style), its payload
// object, and the sender.
func (u *udpSocket) RecvFrom(p *sim.Proc, max int) (int, any, ethernet.Addr, int, error) {
	u.st.Host.Syscall(p)
	blocked := u.queue.Len() == 0
	d, ok := u.queue.Get(p)
	if !ok {
		return 0, nil, 0, 0, sock.ErrClosed
	}
	if blocked {
		p.Sleep(u.st.Host.Wakeup())
	}
	n := d.n
	if n > max {
		n = max
	}
	p.Sleep(u.st.copyTime(n))
	if d.n > max {
		return n, d.obj, d.src, d.sport, sock.ErrMessageTruncated
	}
	return n, d.obj, d.src, d.sport, nil
}

// Close releases the socket.
func (u *udpSocket) Close(p *sim.Proc) error {
	u.st.Host.Syscall(p)
	if u.closed {
		return nil
	}
	u.closed = true
	delete(u.st.udps, u.port)
	u.queue.Close()
	u.src.Fire(sock.PollErr)
	return nil
}

// dispatchUDP routes a received fragment; runs at softirq completion.
func (st *Stack) dispatchUDP(d *datagram) {
	u, ok := st.udps[d.DstPort]
	if !ok {
		st.DroppedNoListener.Inc()
		return
	}
	if d.NFrags == 1 {
		u.deliver(recvDgram{src: d.Src, sport: d.SrcPort, n: d.TotalLen, obj: d.Obj})
		return
	}
	key := reasmID{src: d.Src, id: d.ID}
	r := u.reasm[key]
	now := st.Eng.Now()
	if r == nil {
		r = &dgramReasm{
			nfrags: d.NFrags, total: d.TotalLen,
			src: d.Src, sport: d.SrcPort,
			deadline: now.Add(sim.Duration(sim.Second)),
		}
		u.reasm[key] = r
	}
	if now > r.deadline {
		delete(u.reasm, key)
		u.Drops.Inc()
		return
	}
	r.have++
	if d.Obj != nil {
		r.obj = d.Obj
	}
	if r.have >= r.nfrags {
		delete(u.reasm, key)
		u.deliver(recvDgram{src: r.src, sport: r.sport, n: r.total, obj: r.obj})
	}
}

func (u *udpSocket) deliver(d recvDgram) {
	if !u.queue.TryPut(d) {
		u.Drops.Inc() // socket buffer full: drop, as real UDP does
		return
	}
	u.src.Fire(sock.PollIn)
}

package tcpip

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ethernet"
	"repro/internal/kernel"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// connKey demultiplexes established connections.
type connKey struct {
	lport int
	raddr ethernet.Addr
	rport int
}

// Stack is one host's kernel TCP/IP instance with its standard
// (non-programmable) NIC driver. It attaches to the switch as a station;
// received frames accumulate in a ring until the coalesced interrupt
// fires, then are processed in a softirq batch charged to the host's
// interrupt context.
type Stack struct {
	Eng  *sim.Engine
	Host *kernel.Host
	Cfg  StackConfig

	addr ethernet.Addr
	port *ethernet.Port

	// conns is the established-connection demux: a resizable 4-tuple
	// hash table (see demux.go). listeners is the per-port listener
	// index (the inet_hashtables lhash analogue): SYNs that miss the
	// 4-tuple table resolve here by destination port alone.
	conns     *connTable
	listeners map[int]*Listener
	udps      map[int]*UDPSocket
	nextPort  int
	nextISS   int64
	nextDgram uint64
	dead      bool
	// draining is set by Drain: new connects are refused while the live
	// connections run out their FIN handshakes.
	draining bool

	// Receive interrupt coalescing state. rxRing collects the frames of
	// the next interrupt; rxSpare is the array of the previous batch,
	// which interrupt swaps in so a batch reuses its array.
	rxRing  []*ethernet.Frame
	rxSpare []*ethernet.Frame
	rxIntr  sim.Event
	rxFirst sim.Time

	// onTransmit and onDispatch are the port's Transmit and the stack's
	// dispatch bound once, the fns of its per-frame events; their arg is
	// the *ethernet.Frame.
	onTransmit func(any)
	onDispatch func(any)

	// Stats, published under layer "tcp" by NewStackOnPort.
	SegsIn            sim.Counter `metric:"segs_in"`
	SegsOut           sim.Counter `metric:"segs_out"`
	Rexmits           sim.Counter `metric:"rexmits"`
	DelayedAcks       sim.Counter `metric:"delayed_acks"`
	Interrupts        sim.Counter `metric:"interrupts"`
	FastRetransmits   sim.Counter `metric:"fast_rexmits"`
	DroppedNoListener sim.Counter `metric:"dropped_no_listener"`
	DroppedSegs       sim.Counter `metric:"dropped_segs"`
	ChecksumDrops     sim.Counter `metric:"checksum_drops"`
	// LingerExpired counts lingering closes that hit their deadline and
	// degraded to a reset (tail delivery unconfirmed).
	LingerExpired sim.Counter `metric:"linger_expired"`

	// Tel is the host's telemetry registry: latency spans and
	// per-connection flight recorders feed it.
	Tel *telemetry.Registry
}

// NewStackOnPort builds a stack on a switch port, rebinding the port's
// station — on the crash–restart path a rebooted host's fresh stack
// inherits the dead incarnation's attachment, so it comes back at the
// same address. The stack's tagged counters publish on tel under layer
// "tcp"; a reborn incarnation's stack re-registers on the surviving
// node registry, replacing the dead incarnation's counters.
func NewStackOnPort(e *sim.Engine, host *kernel.Host, port *ethernet.Port, tel *telemetry.Registry, cfg StackConfig) *Stack {
	st := &Stack{
		Eng:       e,
		Host:      host,
		Cfg:       cfg,
		conns:     newConnTable(),
		listeners: make(map[int]*Listener),
		udps:      make(map[int]*UDPSocket),
		nextPort:  32768,
		nextISS:   1 << 20,
		Tel:       tel,
	}
	st.onTransmit = func(f any) { st.port.Transmit(f.(*ethernet.Frame)) }
	st.onDispatch = func(f any) { st.dispatch(f.(*ethernet.Frame)) }
	tel.ReplaceSource("tcp", func() []telemetry.Stat { return telemetry.Fields(st) })
	port.Rebind(st)
	st.port = port
	st.addr = port.Addr()
	return st
}

// Port reports the switch port the stack is attached to, so a restart
// can hand the attachment to the next incarnation.
func (st *Stack) Port() *ethernet.Port { return st.port }

// Addr reports the host's address.
func (st *Stack) Addr() ethernet.Addr { return st.addr }

var _ sock.Network = (*Stack)(nil)

// copyTime is the user<->kernel copy-and-checksum cost for n bytes.
func (st *Stack) copyTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return kernel.CopySetup + sim.BytesToDuration(n, copyBandwidth*8)
}

// ephemeralPort allocates a local port.
func (st *Stack) ephemeralPort() int {
	for {
		st.nextPort++
		if st.nextPort > 60999 {
			st.nextPort = 32768
		}
		if _, ok := st.listeners[st.nextPort]; ok {
			continue
		}
		if _, ok := st.udps[st.nextPort]; ok {
			continue
		}
		return st.nextPort
	}
}

// Deliver implements ethernet.Station: queue the frame and manage the
// coalesced receive interrupt.
func (st *Stack) Deliver(f *ethernet.Frame) {
	if st.dead {
		return
	}
	st.rxRing = append(st.rxRing, f)
	if len(st.rxRing) == 1 {
		st.rxFirst = st.Eng.Now()
		st.rxIntr = st.Eng.AtArg(st.Eng.Now().Add(coalesceDelay), interruptFired, st)
	}
	if len(st.rxRing) >= coalesceFrames {
		st.rxIntr.Cancel()
		st.interrupt()
	}
}

// interruptFired is the fn of a stack's coalescing timer; its arg is the
// *Stack.
func interruptFired(a any) { a.(*Stack).interrupt() }

// interrupt fires the receive interrupt: the whole batch is charged to
// the host's IRQ context (hardware interrupt + softirq protocol
// processing per segment), and each segment's protocol actions run when
// its processing completes.
func (st *Stack) interrupt() {
	batch := st.rxRing
	if len(batch) == 0 {
		return
	}
	st.rxRing, st.rxSpare = st.rxSpare[:0], batch
	st.Interrupts.Inc()
	done := st.Host.Interrupt(0)
	for _, f := range batch {
		done = st.Host.ChargeIRQ(rxSegCost)
		st.Eng.AtArg(done, st.onDispatch, f)
	}
	clear(batch)
}

// dispatch routes one received frame to its connection, listener or UDP
// socket. Runs in event context at softirq completion time.
func (st *Stack) dispatch(f *ethernet.Frame) {
	if !f.FCSOK() {
		// The TCP/IP checksum verification (this era's NICs do not
		// offload it) catches bits flipped on the wire; the segment is
		// dropped in softirq context and the sender's RTO recovers.
		st.ChecksumDrops.Inc()
		st.Eng.Tracef("tcp", "rx frame dropped: checksum error")
		return
	}
	switch pl := f.Payload.(type) {
	case *Segment:
		st.SegsIn.Inc()
		st.dispatchTCP(pl)
	case *Datagram:
		st.dispatchUDP(pl)
	default:
		// Not for this stack (e.g. EMP traffic on a shared fabric).
	}
}

func (st *Stack) dispatchTCP(seg *Segment) {
	st.Eng.Tracef("tcp", "rx %v", seg)
	key := connKey{lport: seg.DstPort, raddr: seg.Src, rport: seg.SrcPort}
	if c := st.conns.lookup(key); c != nil {
		c.input(seg)
		return
	}
	if l, ok := st.listeners[seg.DstPort]; ok && seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0 {
		l.inputSYN(seg)
		return
	}
	st.DroppedNoListener.Inc()
	if seg.Flags&flagRST == 0 {
		// Refuse with RST.
		st.transmitAt(st.Eng.Now(), &Segment{
			Src: st.addr, Dst: seg.Src,
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Flags: flagRST | flagACK, Seq: seg.Ack, Ack: seg.Seq + int64(seg.Len),
		})
	}
}

// Kill models the host dying mid-run: the stack stops sending and
// receiving, and every connection fails with sock.ErrReset so blocked
// local readers and writers wake. Peers discover the death through
// their own retransmission budgets.
func (st *Stack) Kill() {
	if st.dead {
		return
	}
	st.dead = true
	st.rxIntr.Cancel()
	st.rxRing = nil
	var failing []*Conn
	st.conns.forEach(func(c *Conn) { failing = append(failing, c) })
	for _, c := range failing {
		c.fail(sock.ErrReset)
	}
	for port, l := range st.listeners {
		l.closed = true
		l.queue.Close() // wakes blocked Accept with ErrClosed
		delete(st.listeners, port)
		l.src.Fire(sock.PollErr)
	}
}

// Dead reports whether Kill has been called.
func (st *Stack) Dead() bool { return st.dead }

// transmitAt hands a segment to the NIC at time t (>= now). The segment
// must be a fresh one: its frame is built in place.
func (st *Stack) transmitAt(t sim.Time, seg *Segment) {
	if st.dead {
		return
	}
	st.SegsOut.Inc()
	fr := &seg.frame
	*fr = ethernet.Frame{
		Src:        st.addr,
		Dst:        seg.Dst,
		PayloadLen: seg.wireLen(),
		Payload:    seg,
		Flow:       flowLabel(seg.SrcPort, seg.DstPort),
	}
	if t <= st.Eng.Now() {
		st.port.Transmit(fr)
		return
	}
	st.Eng.AtArg(t, st.onTransmit, fr)
}

// Listen implements sock.Network.
func (st *Stack) Listen(p *sim.Proc, port, backlog int) (sock.Listener, error) {
	st.Host.Syscall(p) // socket()+bind()+listen() folded
	if port == 0 {
		port = st.ephemeralPort()
	}
	if _, ok := st.listeners[port]; ok {
		return nil, sock.ErrInUse
	}
	if backlog < 1 {
		backlog = 1
	}
	l := newListener(st, port, backlog)
	st.listeners[port] = l
	return l, nil
}

// Dial implements sock.Network: active open with the kernel three-way
// handshake (the connection cost the paper measures at 200-250 us).
func (st *Stack) Dial(p *sim.Proc, addr ethernet.Addr, port int) (sock.Conn, error) {
	st.Host.Syscall(p) // socket()+connect()
	if st.dead {
		// The host died under this stack: fail at once rather than
		// retrying SYNs into the void from a corpse — callers (session
		// reconnect loops) must move on within their deadline budget.
		return nil, sock.ErrClosed
	}
	if st.draining {
		return nil, sock.ErrRefused
	}
	// DialTimeout bounds the whole handshake, SYN retries included.
	var deadline sim.Time
	if st.Cfg.DialTimeout > 0 {
		deadline = p.Now().Add(st.Cfg.DialTimeout)
	}
	c := newConn(st, st.ephemeralPort(), addr, port)
	st.conns.insert(c)
	c.state = stateSynSent
	c.sendSYN(p, false)
	// Block until established or refused, retrying the SYN. SYN
	// retransmission is the fixed-interval shape of the shared retry
	// policy: synRetries retries of one RTO each, bounded overall by the
	// dial deadline.
	pol := retry.Policy{Max: synRetries, Base: minRTO, Factor: 1}
	loop := retry.New(pol, nil, deadline)
	for c.state == stateSynSent {
		wait := pol.Backoff(loop.Attempt()+1, nil)
		if deadline != 0 {
			remain := deadline.Sub(p.Now())
			if remain <= 0 {
				st.conns.remove(c.key())
				return nil, sock.ErrTimeout
			}
			if remain < wait {
				wait = remain
			}
		}
		if !c.established.WaitForTimeout(p, wait, func() bool { return c.state != stateSynSent }) {
			if _, ok := loop.Next(p.Now()); !ok {
				st.conns.remove(c.key())
				return nil, sock.ErrTimeout
			}
			c.sendSYN(p, false)
		}
	}
	if c.state != stateEstablished {
		st.conns.remove(c.key())
		if c.err != nil {
			return nil, c.err
		}
		return nil, sock.ErrRefused
	}
	p.Sleep(st.Host.Wakeup())
	return c, nil
}

// Drain quiesces the host: refuse new connects (sock.ErrRefused at the
// dialers), close every listener and UDP socket, half-close every
// connection in both directions so the FIN handshakes run out in
// parallel, and wait — bounded by deadline — for the demux table to
// empty. Stragglers (a peer that never closes its side) are reset so
// Drain always terminates; a mandatory audit pass closes it out.
func (st *Stack) Drain(p *sim.Proc, deadline sim.Time) error {
	st.Host.Syscall(p)
	if st.dead {
		return nil
	}
	st.draining = true
	// Snapshot and sort everything first: map iteration order must not
	// leak into simulated time.
	lports := make([]int, 0, len(st.listeners))
	for port := range st.listeners {
		lports = append(lports, port)
	}
	sort.Ints(lports)
	for _, port := range lports {
		st.listeners[port].Close(p)
	}
	uports := make([]int, 0, len(st.udps))
	for port := range st.udps {
		uports = append(uports, port)
	}
	sort.Ints(uports)
	for _, port := range uports {
		st.udps[port].Close(p)
	}
	keys := st.conns.keys()
	sortConnKeys(keys)
	for _, key := range keys {
		c := st.conns.get(key)
		if c == nil {
			continue
		}
		c.CloseRead(p)
		// CloseWrite (not Close) so every FIN handshake runs in parallel
		// under the single Drain deadline instead of serializing one
		// linger wait per connection.
		if c.CloseWrite(p) != nil {
			c.Close(p)
		}
	}
	for st.conns.len() > 0 && p.Now() < deadline {
		wait := 200 * sim.Microsecond
		if remain := deadline.Sub(p.Now()); remain < wait {
			wait = remain
		}
		p.Sleep(wait)
	}
	// Past the deadline: reset whatever is left (a peer holding its half
	// open forever must not hold the host's shutdown hostage).
	if st.conns.len() > 0 {
		keys = st.conns.keys()
		sortConnKeys(keys)
		for _, key := range keys {
			if c := st.conns.get(key); c != nil {
				c.abort(p)
			}
		}
	}
	var findings []string
	st.AuditResources(func(kind, detail string) {
		findings = append(findings, kind+": "+detail)
	})
	if len(findings) > 0 {
		return fmt.Errorf("tcpip: post-drain audit: %s", strings.Join(findings, "; "))
	}
	return nil
}

// Draining reports whether Drain has been called.
func (st *Stack) Draining() bool { return st.draining }

// AuditResources reports kernel-stack resource leaks through add — the
// tcpip side of the descriptor-leak auditor (package audit). Meant to
// run at quiescence: closed-state sockets still occupying the
// demultiplexing tables are the kernel analogue of the substrate's
// unposted-descriptor leaks.
func (st *Stack) AuditResources(add func(kind, detail string)) {
	st.conns.forEach(func(c *Conn) {
		if c.state == stateClosed {
			key := c.key()
			add("closed-conn", fmt.Sprintf("closed connection %d:%d -> %d:%d still in the demux table",
				st.addr, key.lport, key.raddr, key.rport))
		}
	})
	for port, l := range st.listeners {
		if l.closed {
			add("closed-listener", fmt.Sprintf("closed listener on port %d still in the demux table", port))
		}
	}
	if st.dead {
		if len(st.rxRing) != 0 {
			add("rx-ring", fmt.Sprintf("dead stack still holds %d frames in its receive ring", len(st.rxRing)))
		}
		return
	}
}

// flowLabel digests a TCP/UDP port pair into the ECMP flow label
// stamped on outgoing frames: multi-switch fabrics hash it (with the
// addresses) to keep one connection's segments on one path while
// different connections spread across equal-cost paths.
func flowLabel(sport, dport int) uint32 {
	return uint32(sport)<<16 | uint32(dport)&0xffff
}

// VisitConns calls fn for every established connection in deterministic
// (lport, raddr, rport) order with its flight-recorder id, fabric
// endpoints, and ECMP flow label — the hook the cluster layer uses to
// attribute fabric route changes to connections.
func (st *Stack) VisitConns(fn func(id string, local, peer ethernet.Addr, flow uint32)) {
	keys := st.conns.keys()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.lport != b.lport {
			return a.lport < b.lport
		}
		if a.raddr != b.raddr {
			return a.raddr < b.raddr
		}
		return a.rport < b.rport
	})
	for _, k := range keys {
		c := st.conns.get(k)
		if c == nil {
			continue
		}
		fn(c.id, st.addr, k.raddr, flowLabel(k.lport, k.rport))
	}
}

// DemuxStats reports the established-connection table's demux-path
// counters: segment lookups performed and hash-chain entries probed.
// Probes/lookups is the mean demux cost the connscale bench gate
// asserts stays flat as the registered population grows.
func (st *Stack) DemuxStats() (lookups, probes int64) {
	return st.conns.Lookups, st.conns.Probes
}

func (st *Stack) String() string {
	return fmt.Sprintf("tcpip.Stack(addr=%d conns=%d)", st.addr, st.conns.len())
}

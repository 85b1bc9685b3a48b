package tcpip

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

// TestAdvertisedWindowPromiseHonored reproduces the slow-reader pattern
// that once caused in-window drops: the sender fills the advertised
// window while the receiver's application is busy. Every byte within
// the promised window must be accepted without retransmission.
func TestAdvertisedWindowPromiseHonored(t *testing.T) {
	b := defaultBed(2)
	const total = 256 << 10
	got := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		for got < total {
			p.Sleep(500 * sim.Microsecond) // busy application
			n, _, err := c.Read(p, 8<<10)
			if err != nil || (n == 0 && got < total) {
				break
			}
			got += n
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			return
		}
		sent := 0
		for sent < total {
			c.Write(p, 32<<10, nil)
			sent += 32 << 10
		}
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if got != total {
		t.Fatalf("slow reader received %d/%d", got, total)
	}
	if b.stacks[1].Rexmits.Value != 0 || b.stacks[1].FastRetransmits.Value != 0 {
		t.Fatalf("in-window traffic retransmitted: rto=%d fast=%d",
			b.stacks[1].Rexmits.Value, b.stacks[1].FastRetransmits.Value)
	}
	if b.stacks[0].DroppedSegs.Value != 0 {
		t.Fatalf("receiver dropped %d in-promise segments", b.stacks[0].DroppedSegs.Value)
	}
}

// TestNoDelayAvoidsTailStall shows the Nagle/delayed-ack interaction:
// an odd-sized transfer's final partial segment stalls ~40 ms with
// Nagle on, and flows immediately with TCP_NODELAY.
func TestNoDelayAvoidsTailStall(t *testing.T) {
	run := func(noDelay bool) sim.Duration {
		b := defaultBed(2)
		const total = 5*mss + 100 // odd tail after an odd segment count
		var done sim.Time
		b.eng.Spawn("server", func(p *sim.Proc) {
			l, _ := b.stacks[0].Listen(p, 80, 4)
			c, _ := l.Accept(p)
			if _, _, err := sock.ReadFull(p, c, total); err == nil {
				done = p.Now()
			}
		})
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
			if err != nil {
				return
			}
			if noDelay {
				c.(*conn).SetNoDelay(true)
			}
			// Two writes so the tail segment has unacked data ahead of it.
			c.Write(p, 3*mss, nil)
			c.Write(p, 2*mss+100, nil)
		})
		b.eng.RunUntil(sim.Time(10 * sim.Second))
		return sim.Duration(done)
	}
	nagle := run(false)
	nodelay := run(true)
	if nodelay >= nagle {
		t.Fatalf("NODELAY (%v) should beat Nagle (%v) on odd tails", nodelay, nagle)
	}
	if nagle < 30*sim.Millisecond {
		t.Fatalf("expected a delayed-ack stall with Nagle, finished in %v", nagle)
	}
	if nodelay > 5*sim.Millisecond {
		t.Fatalf("NODELAY transfer took %v, should finish in ~1 ms", nodelay)
	}
}

// TestEmissionOrderMonotonic guards the reorder bug: segments charged in
// process context and kernel context must hit the wire in sequence
// order; the in-order-only receiver treats inversions as loss.
func TestEmissionOrderMonotonic(t *testing.T) {
	b := defaultBed(2)
	const total = 2 << 20
	got := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		c.(*conn).SetNoDelay(true)
		for got < total {
			n, _, err := c.Read(p, 64<<10)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			return
		}
		c.(*conn).SetNoDelay(true)
		sent := 0
		// Small writes maximize proc/kernel context interleaving.
		for sent < total {
			c.Write(p, 3000, nil)
			sent += 3000
		}
	})
	b.eng.RunUntil(sim.Time(120 * sim.Second))
	if got < total {
		t.Fatalf("received %d/%d", got, total)
	}
	if b.stacks[0].DroppedSegs.Value != 0 {
		t.Fatalf("%d out-of-order segments dropped on a lossless fabric", b.stacks[0].DroppedSegs.Value)
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	// Light loss on a long stream should mostly recover via fast
	// retransmit rather than RTO.
	b := lossyBed(2, DefaultStackConfig(), 0.005)
	b.eng.Seed(23)
	if mbps := tcpStream(b, 8<<20); mbps == 0 {
		t.Fatal("stream did not finish")
	}
	if b.stacks[1].FastRetransmits.Value == 0 {
		t.Fatal("expected at least one fast retransmit at 0.5% loss over 8MB")
	}
}

func TestFINRetransmission(t *testing.T) {
	// Drop-prone link: the close handshake must still complete (FIN is
	// retransmitted by the RTO path).
	b := lossyBed(2, DefaultStackConfig(), 0.15)
	b.eng.Seed(3)
	sawEOF := false
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 4)
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			n, _, err := c.Read(p, 4096)
			if err != nil {
				return
			}
			if n == 0 {
				sawEOF = true
				c.Close(p)
				return
			}
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			return
		}
		c.Write(p, 1000, nil)
		c.Close(p)
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if !sawEOF {
		t.Fatal("FIN never arrived despite retransmission")
	}
}

func TestManyConcurrentConnectionsDemux(t *testing.T) {
	// Several simultaneous connections between the same host pair must
	// demultiplex by port without crosstalk.
	b := defaultBed(2)
	const conns = 8
	results := make([]int, conns)
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, conns)
		for i := 0; i < conns; i++ {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			p.Engine().Spawn("handler", func(hp *sim.Proc) {
				n, objs, _ := sock.ReadFull(hp, c, 1000)
				if n == 1000 && len(objs) == 1 {
					results[objs[0].(int)] = n
				}
				c.Close(hp)
			})
		}
	})
	for i := 0; i < conns; i++ {
		i := i
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+i) * sim.Microsecond)
			c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			c.Write(p, 1000, i)
			c.Close(p)
		})
	}
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	for i, n := range results {
		if n != 1000 {
			t.Fatalf("connection %d delivered %d bytes", i, n)
		}
	}
}

func TestBacklogOverflowResetsLateConnections(t *testing.T) {
	// Connects beyond the backlog complete their handshake (the client
	// sees SYN-ACK before the server detects overflow) but are reset;
	// the client's first read observes the refusal.
	b := defaultBed(2)
	errs := make([]error, 4)
	b.eng.Spawn("server", func(p *sim.Proc) {
		b.stacks[0].Listen(p, 80, 1) // backlog of one, never accepted
		p.Sleep(sim.Duration(sim.Second))
	})
	for i := 0; i < 4; i++ {
		i := i
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+i*50) * sim.Microsecond)
			c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
			if err != nil {
				errs[i] = err
				return
			}
			_, _, errs[i] = c.Read(p, 16)
		})
	}
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	refused := 0
	for _, err := range errs {
		if err == sock.ErrReset || err == sock.ErrRefused {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("a 1-deep backlog should reset some of 4 simultaneous connects")
	}
}

func TestSelectIncludesUDP(t *testing.T) {
	b := defaultBed(2)
	var readyIdx []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		u, _ := b.stacks[0].UDPOpen(p, 5000)
		l, _ := b.stacks[0].Listen(p, 80, 2)
		readyIdx = selectWait(p, b.eng, []any{l, u}, -1)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		u, _ := b.stacks[1].UDPOpen(p, 0)
		u.SendTo(p, b.stacks[0].Addr(), 5000, 100, nil)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if len(readyIdx) != 1 || readyIdx[0] != 1 {
		t.Fatalf("select should report the UDP socket ready: %v", readyIdx)
	}
}

func TestWriteAfterPeerCloseErrors(t *testing.T) {
	b := defaultBed(2)
	var err error
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 2)
		c, _ := l.Accept(p)
		c.Close(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, derr := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if derr != nil {
			return
		}
		p.Sleep(2 * sim.Millisecond) // let the FIN land and be read
		c.Read(p, 16)                // observe EOF
		c.Close(p)
		_, err = c.Write(p, 100, nil)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if err == nil {
		t.Fatal("write after close should error")
	}
}

func TestISSDistinctAcrossConnections(t *testing.T) {
	b := defaultBed(1)
	st := b.stacks[0]
	c1 := newConn(st, 1, 2, 3)
	c2 := newConn(st, 1, 2, 4)
	if c1.sndbuf.Base() == c2.sndbuf.Base() {
		t.Fatal("consecutive connections share an initial sequence number")
	}
}

func TestTCPListenerCloseWakesAccept(t *testing.T) {
	b := defaultBed(1)
	var err error
	var l sock.Listener
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ = b.stacks[0].Listen(p, 80, 4)
		_, err = l.Accept(p)
	})
	b.eng.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		l.Close(p)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if err != sock.ErrClosed {
		t.Fatalf("accept after close = %v, want ErrClosed", err)
	}
}

func TestConnectionTableDrainsAfterChurn(t *testing.T) {
	// Many sequential connections: the demux tables must not leak
	// (TIME_WAIT is modeled as immediate reaping).
	b := defaultBed(2)
	const rounds = 30
	served := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 4)
		for i := 0; i < rounds; i++ {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for {
				n, _, err := c.Read(p, 4096)
				if err != nil {
					break
				}
				if n == 0 {
					served++
					break
				}
			}
			c.Close(p)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i := 0; i < rounds; i++ {
			c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			c.Write(p, 256, nil)
			c.Close(p)
			p.Sleep(500 * sim.Microsecond)
		}
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if served != rounds {
		t.Fatalf("served %d/%d", served, rounds)
	}
	if n := b.stacks[0].conns.len() + b.stacks[1].conns.len(); n != 0 {
		t.Fatalf("%d connections leaked in the demux tables", n)
	}
}

// TestWedgedBounds pins the kernel TCP monitor's wedge bound: six
// consecutive RTO fires wedge an established connection, five do not,
// and a closed or failed connection is wedged with no streak at all.
func TestWedgedBounds(t *testing.T) {
	cases := []struct {
		name string
		conn *conn
		want bool
	}{
		{"no streak", &conn{state: stateEstablished}, false},
		{"rexmits 5", &conn{state: stateEstablished, rexmits: 5}, false},
		{"rexmits 6", &conn{state: stateEstablished, rexmits: 6}, true},
		{"closed", &conn{state: stateClosed}, true},
		{"failed", &conn{state: stateEstablished, err: sock.ErrReset}, true},
	}
	for _, tc := range cases {
		if got := tc.conn.Wedged(); got != tc.want {
			t.Errorf("%s: Wedged = %v, want %v", tc.name, got, tc.want)
		}
	}
}

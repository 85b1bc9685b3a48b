package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

func TestDoubleCloseIsIdempotent(t *testing.T) {
	b := newBed(2, DefaultOptions())
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		c.Read(p, 64)
		c.Close(p)
		if err := c.Close(p); err != nil {
			t.Errorf("second close: %v", err)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, 16, nil)
		c.Close(p)
		c.Close(p)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if b.subs[0].ActiveSockets()+b.subs[1].ActiveSockets() != 0 {
		t.Fatal("sockets leaked after double close")
	}
}

func TestWriteAfterCloseErrors(t *testing.T) {
	b := newBed(2, DefaultOptions())
	var werr, rerr error
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		c.Read(p, 64)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, 16, nil)
		c.Close(p)
		_, werr = c.Write(p, 16, nil)
		_, _, rerr = c.Read(p, 16)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if werr == nil {
		t.Fatal("write after close should error")
	}
	if rerr == nil {
		t.Fatal("read after close should error")
	}
}

func TestListenerCloseWakesBlockedAccept(t *testing.T) {
	b := newBed(1, DefaultOptions())
	var err error
	var l sock.Listener
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ = b.subs[0].Listen(p, 80, 4)
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
	if b.subs[0].EP.PrepostedDescriptors() != 0 {
		t.Fatal("listener descriptors leaked")
	}
}

func TestListenPortValidation(t *testing.T) {
	b := newBed(1, DefaultOptions())
	b.eng.Spawn("p", func(p *sim.Proc) {
		if _, err := b.subs[0].Listen(p, maxListenPort+1, 4); err == nil {
			t.Error("port outside the tag space should be rejected")
		}
		if _, err := b.subs[0].Listen(p, 80, 4); err != nil {
			t.Errorf("listen: %v", err)
		}
		if _, err := b.subs[0].Listen(p, 80, 4); err != sock.ErrInUse {
			t.Errorf("duplicate listen = %v, want ErrInUse", err)
		}
	})
	b.eng.Run()
}

func TestHoldbackReordersOutOfOrderCompletions(t *testing.T) {
	// Force the out-of-order completion path: with a tiny credit count
	// the receiver's descriptors recycle constantly while messages race
	// through the unexpected queue during the connect window; stream
	// bytes must still arrive in order (verified by object sequence).
	opts := DefaultOptions()
	opts.Credits = 2
	b := newBed(2, opts)
	var objs []any
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		got := 0
		for got < 50*1024 {
			n, o, err := c.Read(p, 64<<10)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got += n
			objs = append(objs, o...)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		for i := 0; i < 50; i++ {
			c.Write(p, 1024, i) // immediately, racing the accept
		}
	})
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	if len(objs) != 50 {
		t.Fatalf("received %d objects, want 50", len(objs))
	}
	for i, o := range objs {
		if o.(int) != i {
			t.Fatalf("stream reordered at %d: %v", i, o)
		}
	}
}

func TestUQSlotsRecycledOverChurn(t *testing.T) {
	// Regression: peer-close messages arriving after cleanup used to
	// leak unexpected-queue slots; heavy connection churn must not
	// exhaust the queue.
	opts := DefaultOptions()
	opts.Credits = 2
	b := newBed(2, opts)
	const rounds = 200 // far more than the UQ slot count (4*2+64 = 72)
	served := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 8)
		for i := 0; i < rounds; i++ {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			if _, _, err := sock.ReadFull(p, c, 16); err == nil {
				served++
			}
			c.Close(p)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i := 0; i < rounds; i++ {
			c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			c.Write(p, 16, nil)
			c.Close(p)
		}
	})
	b.eng.RunUntil(sim.Time(120 * sim.Second))
	if served != rounds {
		t.Fatalf("served %d/%d — unexpected-queue exhaustion?", served, rounds)
	}
	// After churn plus purging, the queues must be near-empty.
	if q := b.subs[0].EP.UnexpectedQueued(); q > 4 {
		t.Fatalf("server UQ still holds %d stale messages", q)
	}
}

func TestSyncConnectTimesOutWithoutListener(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncConnect = true
	b := newBed(2, opts)
	var err error
	b.eng.Spawn("client", func(p *sim.Proc) {
		_, err = b.subs[1].Dial(p, b.subs[0].Addr(), 4242)
	})
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	if err != sock.ErrTimeout {
		t.Fatalf("dial to missing listener = %v, want timeout", err)
	}
	if b.subs[1].ActiveSockets() != 0 {
		t.Fatal("failed dial leaked a socket")
	}
}

func TestSelectMixesListenerAndConn(t *testing.T) {
	b := newBed(3, DefaultOptions())
	var firstReady, secondReady []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		// First readiness: the listener (client 1 connects).
		firstReady = selectWait(p, b.eng, []any{l}, -1)
		c, _ := l.Accept(p)
		// Second readiness: data on the accepted conn beats a second
		// (never-arriving) connection.
		secondReady = selectWait(p, b.eng, []any{l, c}, -1)
		c.Read(p, 64)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(30 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		p.Sleep(300 * sim.Microsecond)
		c.Write(p, 16, nil)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if len(firstReady) != 1 || firstReady[0] != 0 {
		t.Fatalf("first select = %v, want listener", firstReady)
	}
	if len(secondReady) != 1 || secondReady[0] != 1 {
		t.Fatalf("second select = %v, want conn readable", secondReady)
	}
}

func TestDGSelectReadinessViaUnexpectedQueue(t *testing.T) {
	// Datagram-mode readability comes from peeking the unexpected
	// queue: select must wake when an early message lands there.
	b := newBed(2, DatagramOptions())
	var ready []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		ready = selectWait(p, b.eng, []any{c}, -1)
		n, _, _ := c.Read(p, 1024)
		if n != 100 {
			t.Errorf("read %d, want 100", n)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		p.Sleep(500 * sim.Microsecond)
		c.Write(p, 100, nil)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if len(ready) != 1 {
		t.Fatalf("select never woke for a datagram arrival: %v", ready)
	}
}

func TestBigBidirectionalTransfer(t *testing.T) {
	// Both sides stream more than Credits*bufSize simultaneously.
	opts := DefaultOptions()
	opts.Credits = 4
	b := newBed(2, opts)
	const total = 2 << 20
	finished := 0
	for i := 0; i < 2; i++ {
		me := i
		b.eng.Spawn("node", func(p *sim.Proc) {
			var c sock.Conn
			if me == 0 {
				l, _ := b.subs[0].Listen(p, 80, 4)
				c, _ = l.Accept(p)
			} else {
				p.Sleep(10 * sim.Microsecond)
				c, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			}
			done := sim.NewCond(b.eng, "done")
			writerDone := false
			p.Engine().Spawn("writer", func(wp *sim.Proc) {
				sent := 0
				for sent < total {
					if _, err := c.Write(wp, 64<<10, nil); err != nil {
						break
					}
					sent += 64 << 10
				}
				writerDone = true
				done.Broadcast()
			})
			got := 0
			for got < total {
				n, _, err := c.Read(p, 256<<10)
				if err != nil || n == 0 {
					break
				}
				got += n
			}
			done.WaitFor(p, func() bool { return writerDone })
			if got == total {
				finished++
			}
		})
	}
	b.eng.RunUntil(sim.Time(120 * sim.Second))
	if finished != 2 {
		t.Fatalf("%d/2 nodes completed the bidirectional transfer", finished)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{Credits: -3, DialRetries: -1, Linger: -1, EagerBudget: -1, DescriptorBudget: -1, UQBytes: -1}
	n := o.normalize()
	if n != (Options{Credits: 1}) {
		t.Fatalf("normalize = %+v", n)
	}
}

func TestAckDescriptorArithmetic(t *testing.T) {
	// The paper's 50% / 6.25% descriptor-mix arithmetic.
	cases := []struct {
		credits int
		da, uq  bool
		want    int
	}{
		{1, true, false, 1},  // 50% of 2 posted
		{32, true, false, 2}, // 2 of 34 ~ 6%
		{32, false, false, 32},
		{32, true, true, 0},
	}
	for _, c := range cases {
		o := DefaultOptions()
		o.Credits = c.credits
		o.DelayedAcks = c.da
		o.UQAcks = c.uq
		if got := o.ackDescriptors(); got != c.want {
			t.Errorf("ackDescriptors(credits=%d da=%v uq=%v) = %d, want %d",
				c.credits, c.da, c.uq, got, c.want)
		}
	}
	o := DefaultOptions()
	o.DelayedAcks = false
	if o.ackThreshold() != 1 {
		t.Error("without delayed acks the threshold is every message")
	}
	o.DelayedAcks = true
	o.Credits = 32
	if o.ackThreshold() != 16 {
		t.Error("delayed acks fire at half the credits")
	}
}

func TestPiggybackCounterMoves(t *testing.T) {
	b := newBed(2, DefaultOptions())
	pingPong(b, 256, 30)
	if b.subs[0].PiggybackAcks.Value == 0 && b.subs[1].PiggybackAcks.Value == 0 {
		t.Fatal("request/response traffic should piggyback credit returns")
	}
}

func TestConnectionIdentityPreserved(t *testing.T) {
	// Section 5.1: the explicit connection message must preserve the
	// requesting client's identity, unlike the rejected null-functions
	// approach.
	b := newBed(2, DefaultOptions())
	var srv, cli *Conn
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		srv = c.(*Conn)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		cli = c.(*Conn)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if srv == nil || cli == nil {
		t.Fatal("not connected")
	}
	if srv.RemoteAddr() != b.subs[1].Addr() || cli.RemoteAddr() != b.subs[0].Addr() {
		t.Fatal("peer addresses wrong")
	}
	if srv.LocalPort() != 80 || cli.RemotePort() != 80 {
		t.Fatalf("ports: server local %d, client remote %d, want 80", srv.LocalPort(), cli.RemotePort())
	}
	if srv.RemotePort() != cli.LocalPort() {
		t.Fatalf("client identity lost: server sees port %d, client has %d", srv.RemotePort(), cli.LocalPort())
	}
}

func TestDGMutualClose(t *testing.T) {
	// Both datagram endpoints close around the same time: the peer's
	// close message is drained from the unexpected queue during our own
	// close (drainDGControl), and both sides clean up.
	b := newBed(2, DatagramOptions())
	closed := 0
	for i := 0; i < 2; i++ {
		me := i
		b.eng.Spawn("node", func(p *sim.Proc) {
			var c sock.Conn
			if me == 0 {
				l, _ := b.subs[0].Listen(p, 80, 4)
				c, _ = l.Accept(p)
			} else {
				p.Sleep(10 * sim.Microsecond)
				c, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			}
			c.Write(p, 64, nil)
			p.Sleep(300 * sim.Microsecond) // let both writes land
			c.Close(p)
			closed++
		})
	}
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if closed != 2 {
		t.Fatalf("closed %d/2", closed)
	}
	if b.subs[0].ActiveSockets()+b.subs[1].ActiveSockets() != 0 {
		t.Fatal("sockets leaked after DG mutual close")
	}
}

func TestAccessorsAndShutdown(t *testing.T) {
	b := newBed(2, DefaultOptions())
	b.eng.Spawn("p", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 99, 2)
		if l.Addr() != b.subs[0].Addr() || l.Port() != 99 {
			t.Errorf("listener accessors: %v %v", l.Addr(), l.Port())
		}
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 99)
		if c.LocalAddr() != b.subs[1].Addr() {
			t.Errorf("LocalAddr = %v", c.LocalAddr())
		}
		if DataStreaming.String() != "DS" || Datagram.String() != "DG" {
			t.Error("mode strings wrong")
		}
		if kindConnReq.String() != "conn-req" || kindRendAck.String() != "rend-ack" {
			t.Error("kind strings wrong")
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	b.subs[0].Shutdown()
	b.subs[1].Shutdown()
}

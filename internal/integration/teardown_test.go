package integration

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// Graceful-teardown suite: half-close, lingering close, per-dial
// deadlines, double-close idempotence, and the host-wide quiesce — on
// both stacks wherever the semantics exist on both.

// TestHalfCloseBothTransports runs the same half-duplex conversation on
// both stacks: the client sends a request and shuts down its write
// side, the server reads to end-of-stream and only then answers. The
// application-visible figures (bytes each side received) must come out
// identical on the two transports.
func TestHalfCloseBothTransports(t *testing.T) {
	const c2s, s2c = 5000, 3000
	type figures struct{ srvGot, cliGot int }
	results := map[cluster.Transport]figures{}
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 21})
		var fig figures
		c.Eng.Spawn("server", func(p *sim.Proc) {
			l, err := c.Nodes[0].Net.Listen(p, 80, 4)
			if err != nil {
				t.Errorf("%v listen: %v", tr, err)
				return
			}
			conn, err := l.Accept(p)
			if err != nil {
				t.Errorf("%v accept: %v", tr, err)
				return
			}
			for {
				n, _, err := conn.Read(p, 64<<10)
				if err != nil {
					t.Errorf("%v server read: %v", tr, err)
					break
				}
				if n == 0 {
					break // client shut its write side
				}
				fig.srvGot += n
			}
			// The reverse direction must still carry data after the
			// peer's half-close.
			if _, err := conn.Write(p, s2c, "reply"); err != nil {
				t.Errorf("%v server write after peer half-close: %v", tr, err)
			}
			conn.Close(p)
			l.Close(p)
		})
		c.Eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("%v dial: %v", tr, err)
				return
			}
			hc, ok := conn.(sock.Closer)
			if !ok {
				t.Errorf("%v conn %T does not implement sock.Closer", tr, conn)
				conn.Close(p)
				return
			}
			if _, err := conn.Write(p, c2s, "request"); err != nil {
				t.Errorf("%v client write: %v", tr, err)
			}
			if err := hc.CloseWrite(p); err != nil {
				t.Errorf("%v CloseWrite: %v", tr, err)
			}
			if _, err := conn.Write(p, 64, nil); err != sock.ErrClosed {
				t.Errorf("%v write after CloseWrite: err = %v, want sock.ErrClosed", tr, err)
			}
			for {
				n, _, err := conn.Read(p, 64<<10)
				if err != nil {
					t.Errorf("%v client read: %v", tr, err)
					break
				}
				if n == 0 {
					break
				}
				fig.cliGot += n
			}
			conn.Close(p)
		})
		c.Run(5 * sim.Second)
		if fig.srvGot != c2s || fig.cliGot != s2c {
			t.Errorf("%v: server got %d (want %d), client got %d (want %d)",
				tr, fig.srvGot, c2s, fig.cliGot, s2c)
		}
		results[tr] = fig
		checkSubstrateLeaks(t, c)
	}
	if results[cluster.TransportSubstrate] != results[cluster.TransportTCP] {
		t.Errorf("half-close figures differ across transports: substrate %+v, tcp %+v",
			results[cluster.TransportSubstrate], results[cluster.TransportTCP])
	}
}

// TestDoubleCloseIdempotent: a second Close on either transport is a
// nil-returning no-op, and the half-close entry points report ErrClosed
// once the socket is gone instead of touching freed state.
func TestDoubleCloseIdempotent(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 22})
		c.Eng.Spawn("server", func(p *sim.Proc) {
			l, err := c.Nodes[0].Net.Listen(p, 80, 4)
			if err != nil {
				t.Errorf("%v listen: %v", tr, err)
				return
			}
			conn, err := l.Accept(p)
			if err != nil {
				t.Errorf("%v accept: %v", tr, err)
				return
			}
			for {
				n, _, err := conn.Read(p, 64<<10)
				if err != nil || n == 0 {
					break
				}
			}
			if err := conn.Close(p); err != nil {
				t.Errorf("%v server close: %v", tr, err)
			}
			if err := conn.Close(p); err != nil {
				t.Errorf("%v server double close: %v", tr, err)
			}
			l.Close(p)
		})
		c.Eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("%v dial: %v", tr, err)
				return
			}
			conn.Write(p, 64, nil)
			if err := conn.Close(p); err != nil {
				t.Errorf("%v close: %v", tr, err)
			}
			if err := conn.Close(p); err != nil {
				t.Errorf("%v double close: err = %v, want nil", tr, err)
			}
			hc := conn.(sock.Closer)
			if err := hc.CloseWrite(p); err != sock.ErrClosed {
				t.Errorf("%v CloseWrite after Close: err = %v, want sock.ErrClosed", tr, err)
			}
			if err := hc.CloseRead(p); err != sock.ErrClosed {
				t.Errorf("%v CloseRead after Close: err = %v, want sock.ErrClosed", tr, err)
			}
		})
		c.Run(2 * sim.Second)
		checkSubstrateLeaks(t, c)
	}
}

// TestPollerHalfCloseFiresEOFOnce is the readiness regression for
// half-close: a registered connection whose peer shuts its write side
// fires PollIn, the read observes a 0-length EOF, and the edge does not
// re-fire into an event storm afterwards.
func TestPollerHalfCloseFiresEOFOnce(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		extra := 0
		c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 23})
		c.Eng.Spawn("server", func(p *sim.Proc) {
			l, err := c.Nodes[0].Net.Listen(p, 80, 4)
			if err != nil {
				t.Errorf("%v listen: %v", tr, err)
				return
			}
			conn, err := l.Accept(p)
			if err != nil {
				t.Errorf("%v accept: %v", tr, err)
				return
			}
			po := sock.NewPoller(c.Eng, "teardown-eof")
			po.Register(conn.(sock.Pollable), sock.PollIn|sock.PollErr, nil)
			w := po.Waiter("server")
			if _, ok := w.Wait(p, sim.Second); !ok {
				t.Errorf("%v: poller never fired on peer half-close", tr)
			} else if n, _, err := conn.Read(p, 4096); err != nil || n != 0 {
				t.Errorf("%v: read after half-close = (%d, %v), want 0-length EOF", tr, n, err)
			}
			// Drain any further events: the EOF edge must not re-fire.
			for {
				po.Done(conn.(sock.Pollable))
				if _, ok := w.Wait(p, 2*sim.Millisecond); !ok {
					break
				}
				extra++
			}
			po.Close()
			conn.Close(p)
			l.Close(p)
		})
		c.Eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("%v dial: %v", tr, err)
				return
			}
			if err := conn.(sock.Closer).CloseWrite(p); err != nil {
				t.Errorf("%v CloseWrite: %v", tr, err)
			}
			p.Sleep(30 * sim.Millisecond)
			conn.Close(p)
		})
		c.Run(2 * sim.Second)
		if extra > 0 {
			t.Errorf("%v: EOF edge re-fired %d extra event(s)", tr, extra)
		}
		checkSubstrateLeaks(t, c)
	}
}

// TestDialDeadlineSubstrate: under Recovery, a synchronous connect to
// a port nobody listens on must resolve with sock.ErrTimeout when the
// 10 ms dial deadline passes, instead of burning the full retry budget
// (ten more 50 ms reply waits).
func TestDialDeadlineSubstrate(t *testing.T) {
	opts := core.DefaultOptions()
	opts.SyncConnect = true
	opts.Recovery = true
	opts.DialRetries = 10
	c := cluster.NewSubstrate(2, &opts)
	var dialErr error
	var took sim.Duration
	c.Eng.Spawn("dialer", func(p *sim.Proc) {
		start := p.Now()
		_, dialErr = c.Nodes[1].Net.Dial(p, c.Addr(0), 4242) // nobody listens
		took = p.Now().Sub(start)
	})
	c.Run(sim.Second)
	if dialErr != sock.ErrTimeout {
		t.Fatalf("dial past deadline: err = %v, want sock.ErrTimeout", dialErr)
	}
	if took < 9*sim.Millisecond || took > 12*sim.Millisecond {
		t.Fatalf("dial resolved in %v, want about the 10ms deadline", took)
	}
	if k := c.Nodes[1].Sub.ActiveSockets(); k != 0 {
		t.Fatalf("abandoned dial leaked %d sockets", k)
	}
	if k := c.Nodes[1].Sub.EP.PrepostedDescriptors(); k != 0 {
		t.Fatalf("abandoned dial leaked %d descriptors", k)
	}
	c.Nodes[0].Sub.PurgeStale()
	if k := c.Nodes[0].Sub.EP.UnexpectedQueued(); k != 0 {
		t.Fatalf("target holds %d stale unexpected-queue entries after purge", k)
	}
}

// TestDialDeadlineTCP: the kernel stack's DialTimeout bounds the whole
// SYN handshake; a partitioned target resolves with sock.ErrTimeout at
// the deadline rather than after five full SYN-retry RTOs.
func TestDialDeadlineTCP(t *testing.T) {
	cfg := tcpip.DefaultStackConfig()
	cfg.DialTimeout = 4 * sim.Millisecond
	pl := &faults.Plan{Clauses: faults.NodeDown(0, 0, 800*sim.Millisecond)}
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportTCP,
		TCP:       &cfg,
		Seed:      24,
		Faults:    pl,
	})
	var dialErr error
	var took sim.Duration
	c.Eng.Spawn("dialer", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		start := p.Now()
		_, dialErr = c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		took = p.Now().Sub(start)
	})
	c.Run(sim.Second)
	if dialErr != sock.ErrTimeout {
		t.Fatalf("dial across partition: err = %v, want sock.ErrTimeout", dialErr)
	}
	if took < 3*sim.Millisecond || took > 6*sim.Millisecond {
		t.Fatalf("dial resolved in %v, want about the 4ms deadline", took)
	}
}

// TestLingerCloseDeliversTail: with Options.Linger set, Close blocks
// until every credit is home — the peer provably consumed the tail —
// and returns nil well inside the linger bound.
func TestLingerCloseDeliversTail(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Linger = 50 * sim.Millisecond
	c := cluster.NewSubstrate(2, &opts)
	const payload = 128 << 10
	got := 0
	var closeErr error
	var took sim.Duration
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			n, _, err := conn.Read(p, 64<<10)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
		conn.Close(p)
		l.Close(p)
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for sent := 0; sent < payload; sent += 8 << 10 {
			if _, err := conn.Write(p, 8<<10, nil); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		start := p.Now()
		closeErr = conn.Close(p)
		took = p.Now().Sub(start)
	})
	c.Run(5 * sim.Second)
	if closeErr != nil {
		t.Fatalf("linger close: %v", closeErr)
	}
	if got != payload {
		t.Fatalf("server received %d of %d bytes", got, payload)
	}
	if took >= opts.Linger {
		t.Fatalf("drained close took %v, the full linger bound %v", took, opts.Linger)
	}
	if v := c.Nodes[1].Sub.LingerExpired.Value; v != 0 {
		t.Fatalf("LingerExpired = %d on a drained close", v)
	}
	checkSubstrateLeaks(t, c)
}

// TestLingerExpiryAbortsUnconsumedTail: the peer stages data but its
// application never consumes it, so the receive-side eager budget
// withholds the credits. The lingering close cannot prove the drain,
// expires at the bound, aborts, and reports sock.ErrTimeout — leaking
// nothing on the closing host.
func TestLingerExpiryAbortsUnconsumedTail(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Linger = 5 * sim.Millisecond
	opts.Credits = 8
	opts.EagerBudget = 1024
	c := cluster.NewSubstrate(2, &opts)
	var closeErr error
	var took sim.Duration
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if _, err := l.Accept(p); err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		p.Sleep(sim.Second) // accept, then never read
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 7; i++ {
			if _, err := conn.Write(p, 4096, nil); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		start := p.Now()
		closeErr = conn.Close(p)
		took = p.Now().Sub(start)
	})
	c.Run(500 * sim.Millisecond)
	if closeErr != sock.ErrTimeout {
		t.Fatalf("undrainable linger close: err = %v, want sock.ErrTimeout", closeErr)
	}
	if took < opts.Linger || took > opts.Linger+2*sim.Millisecond {
		t.Fatalf("expiry took %v, want about the %v linger bound", took, opts.Linger)
	}
	if v := c.Nodes[1].Sub.LingerExpired.Value; v != 1 {
		t.Fatalf("LingerExpired = %d, want 1", v)
	}
	if k := c.Nodes[1].Sub.ActiveSockets(); k != 0 {
		t.Fatalf("aborted close leaked %d sockets", k)
	}
	if k := c.Nodes[1].Sub.EP.PrepostedDescriptors(); k != 0 {
		t.Fatalf("aborted close leaked %d descriptors", k)
	}
}

// TestTCPLingerExpiryOnPartition: SO_LINGER semantics on the kernel
// stack — the FIN cannot be acknowledged across a partition, so Close
// blocks for the linger bound, then aborts with sock.ErrTimeout.
func TestTCPLingerExpiryOnPartition(t *testing.T) {
	cfg := tcpip.DefaultStackConfig()
	cfg.Linger = 10 * sim.Millisecond
	const cutAt = 5 * sim.Millisecond
	pl := &faults.Plan{Clauses: faults.NodeDown(0, cutAt, 800*sim.Millisecond)}
	c := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: cluster.TransportTCP,
		TCP:       &cfg,
		Seed:      25,
		Faults:    pl,
	})
	var closeErr error
	var took sim.Duration
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			if _, _, err := conn.Read(p, 64<<10); err != nil {
				return
			}
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := conn.Write(p, 4096, nil); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		p.Sleep(6 * sim.Millisecond) // partition is up; FIN will be lost
		start := p.Now()
		closeErr = conn.Close(p)
		took = p.Now().Sub(start)
	})
	c.Run(sim.Second)
	if closeErr != sock.ErrTimeout {
		t.Fatalf("linger close across partition: err = %v, want sock.ErrTimeout", closeErr)
	}
	if took < cfg.Linger || took > cfg.Linger+3*sim.Millisecond {
		t.Fatalf("expiry took %v, want about the %v linger bound", took, cfg.Linger)
	}
	if v := c.Nodes[1].Stack.LingerExpired.Value; v != 1 {
		t.Fatalf("LingerExpired = %d, want 1", v)
	}
}

// TestDrainQuiesceMixedConns is the host-wide quiesce acceptance run:
// one host carries 68 live connections — 36 streaming, 32 datagram,
// every one with a blocked reader at both ends — and drains under a
// deadline while new dials keep arriving. Every dial issued after the
// drain begins resolves with sock.ErrRefused, every connection unwinds
// through the linger path, and the mandatory post-drain audits (whose
// findings surface as the Drain error) come back clean.
func TestDrainQuiesceMixedConns(t *testing.T) {
	eng := sim.NewEngine()
	sw := ethernet.NewSwitch(eng)
	newSub := func(opts core.Options) *core.Substrate {
		h := kernel.NewHost(eng, "host", 4)
		n := nic.New(eng, "nic", nic.DefaultConfig())
		n.Attach(sw)
		return core.New(eng, h, n, telemetry.New(), opts)
	}
	ds := core.DefaultOptions()
	dg := core.DatagramOptions()
	late := core.DefaultOptions()
	late.SyncConnect = true
	late.DialRetries = 0
	// The "host" under drain runs a streaming and a datagram substrate
	// side by side; quiescing it means draining both.
	srvDS, srvDG := newSub(ds), newSub(dg)
	cliDS, cliDG, lateSub := newSub(ds), newSub(dg), newSub(late)

	const dsConns, dgConns = 36, 32
	serve := func(name string, s *core.Substrate, conns int) {
		eng.Spawn(name, func(p *sim.Proc) {
			l, err := s.Listen(p, 80, conns)
			if err != nil {
				t.Errorf("%s listen: %v", name, err)
				return
			}
			for i := 0; i < conns; i++ {
				cn, err := l.Accept(p)
				if err != nil {
					return // drain closed the listener
				}
				eng.Spawn(name+"-handler", func(hp *sim.Proc) {
					for {
						n, _, err := cn.Read(hp, 64<<10)
						if err != nil || n == 0 {
							break
						}
					}
					cn.Close(hp)
				})
			}
		})
	}
	serve("ds-server", srvDS, dsConns)
	serve("dg-server", srvDG, dgConns)

	connected := 0
	client := func(name string, from, to *core.Substrate, i int) {
		eng.Spawn(name, func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+15*i) * sim.Microsecond)
			cn, err := from.Dial(p, to.Addr(), 80)
			if err != nil {
				t.Errorf("%s %d dial: %v", name, i, err)
				return
			}
			connected++
			if _, err := cn.Write(p, 512, nil); err != nil {
				t.Errorf("%s %d write: %v", name, i, err)
				return
			}
			for { // block until the drain's shutdown delivers EOF
				n, _, err := cn.Read(p, 64<<10)
				if err != nil || n == 0 {
					break
				}
			}
			cn.Close(p)
		})
	}
	for i := 0; i < dsConns; i++ {
		client("ds-client", cliDS, srvDS, i)
	}
	for i := 0; i < dgConns; i++ {
		client("dg-client", cliDG, srvDG, i)
	}

	const drainAt = 10 * sim.Millisecond
	const drainBudget = 200 * sim.Millisecond
	var errDS, errDG error
	var doneDS, doneDG sim.Time
	eng.Spawn("drain-ds", func(p *sim.Proc) {
		p.Sleep(drainAt)
		errDS = srvDS.Drain(p, p.Now().Add(drainBudget))
		doneDS = p.Now()
	})
	eng.Spawn("drain-dg", func(p *sim.Proc) {
		p.Sleep(drainAt)
		errDG = srvDG.Drain(p, p.Now().Add(drainBudget))
		doneDG = p.Now()
	})
	refused := 0
	for i := 0; i < 8; i++ {
		i := i
		eng.Spawn("late-dialer", func(p *sim.Proc) {
			p.Sleep(drainAt + 50*sim.Microsecond + sim.Duration(i)*5*sim.Microsecond)
			dst := srvDS
			if i%2 == 1 {
				dst = srvDG
			}
			if _, err := lateSub.Dial(p, dst.Addr(), 80); err != sock.ErrRefused {
				t.Errorf("late dial %d: err = %v, want sock.ErrRefused", i, err)
			} else {
				refused++
			}
		})
	}
	eng.RunUntil(sim.Time(5 * sim.Second))

	if connected != dsConns+dgConns {
		t.Fatalf("%d of %d connections established before the drain", connected, dsConns+dgConns)
	}
	if errDS != nil {
		t.Fatalf("streaming drain: %v", errDS)
	}
	if errDG != nil {
		t.Fatalf("datagram drain: %v", errDG)
	}
	if doneDS == 0 || doneDG == 0 {
		t.Fatal("drain never completed")
	}
	if limit := drainAt + drainBudget; sim.Duration(doneDS) > limit || sim.Duration(doneDG) > limit {
		t.Fatalf("drain overran its deadline: ds %v, dg %v, limit %v",
			sim.Duration(doneDS), sim.Duration(doneDG), limit)
	}
	if refused != 8 {
		t.Fatalf("%d of 8 concurrent dials refused", refused)
	}
	for name, s := range map[string]*core.Substrate{
		"srv-ds": srvDS, "srv-dg": srvDG, "cli-ds": cliDS, "cli-dg": cliDG, "late": lateSub,
	} {
		if k := s.ActiveSockets(); k != 0 {
			t.Errorf("%s leaked %d active sockets", name, k)
		}
		if k := s.EP.PrepostedDescriptors(); k != 0 {
			t.Errorf("%s leaked %d preposted descriptors", name, k)
		}
		s.PurgeStale()
		if k := s.EP.UnexpectedQueued(); k != 0 {
			t.Errorf("%s leaked %d unexpected-queue entries", name, k)
		}
	}
}

// TestDrainTCPStack drains a kernel-stack host holding live
// connections: the FIN handshakes run out in parallel under the one
// deadline, a dial issued mid-drain is refused, and the stack's demux
// table and buffer gauges audit clean (surfaced as the Drain error).
func TestDrainTCPStack(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 3, Transport: cluster.TransportTCP, Seed: 26})
	const conns = 24
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, conns)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < conns; i++ {
			cn, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Eng.Spawn("handler", func(hp *sim.Proc) {
				for {
					n, _, err := cn.Read(hp, 64<<10)
					if err != nil || n == 0 {
						break
					}
				}
				cn.Close(hp)
			})
		}
	})
	connected := 0
	for i := 0; i < conns; i++ {
		i := i
		c.Eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+25*i) * sim.Microsecond)
			cn, err := c.Nodes[1+i%2].Net.Dial(p, c.Addr(0), 80)
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			connected++
			if _, err := cn.Write(p, 512, nil); err != nil {
				t.Errorf("client %d write: %v", i, err)
				return
			}
			for {
				n, _, err := cn.Read(p, 64<<10)
				if err != nil || n == 0 {
					break
				}
			}
			cn.Close(p)
		})
	}
	var drainErr error
	var done sim.Time
	c.Eng.Spawn("drainer", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		drainErr = c.Nodes[0].Drain(p, p.Now().Add(100*sim.Millisecond))
		done = p.Now()
	})
	var lateErr error
	c.Eng.Spawn("late-dialer", func(p *sim.Proc) {
		p.Sleep(10*sim.Millisecond + 50*sim.Microsecond)
		_, lateErr = c.Nodes[2].Net.Dial(p, c.Addr(0), 80)
	})
	c.Run(2 * sim.Second)
	if connected != conns {
		t.Fatalf("%d of %d connections established before the drain", connected, conns)
	}
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
	if done == 0 {
		t.Fatal("drain never completed")
	}
	if sim.Duration(done) > 10*sim.Millisecond+100*sim.Millisecond {
		t.Fatalf("drain overran its deadline, finished at %v", sim.Duration(done))
	}
	if lateErr != sock.ErrRefused {
		t.Fatalf("dial during drain: err = %v, want sock.ErrRefused", lateErr)
	}
	if !c.Nodes[0].Stack.Draining() {
		t.Fatal("stack does not report draining")
	}
	checkSubstrateLeaks(t, c)
}

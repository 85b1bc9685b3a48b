package core

import (
	"sort"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// selectWait emulates a level-triggered select() over an ephemeral
// Poller: register everything (registration queues an event for
// already-ready items), wait for the first event, drain the rest with
// Wait(0), and report the ready indices in ascending order.
func selectWait(p *sim.Proc, eng *sim.Engine, items []any, timeout sim.Duration) []int {
	po := sock.NewPoller(eng, "test.select")
	defer po.Close()
	for i, it := range items {
		po.Register(it.(sock.Pollable), sock.PollIn|sock.PollErr, i)
	}
	w := po.Waiter("select")
	var out []int
	for ev, ok := w.Wait(p, timeout); ok; ev, ok = w.Wait(p, 0) {
		out = append(out, ev.Data.(int))
	}
	sort.Ints(out)
	return out
}

type bed struct {
	eng  *sim.Engine
	sw   *ethernet.Switch
	subs []*Substrate
}

// newBedWithLoss builds a two-node bed on a lossy fabric with a seed.
func newBedWithLoss(opts Options, loss float64, seed uint64) *bed {
	b := &bed{eng: sim.NewEngine()}
	b.eng.Seed(seed)
	b.sw = ethernet.NewSwitch(b.eng)
	b.sw.SetFaults(&faults.Plan{Clauses: []faults.Clause{faults.Uniform(loss, 0, 0, 0)}})
	for i := 0; i < 2; i++ {
		h := kernel.NewHost(b.eng, "h", 4)
		nc := nic.New(b.eng, "n", nic.DefaultConfig())
		nc.Attach(b.sw)
		b.subs = append(b.subs, New(b.eng, h, nc, telemetry.New(), opts))
	}
	return b
}

func newBed(n int, opts Options) *bed {
	b := &bed{eng: sim.NewEngine()}
	b.sw = ethernet.NewSwitch(b.eng)
	for i := 0; i < n; i++ {
		h := kernel.NewHost(b.eng, "h", 4)
		nc := nic.New(b.eng, "n", nic.DefaultConfig())
		nc.Attach(b.sw)
		b.subs = append(b.subs, New(b.eng, h, nc, telemetry.New(), opts))
	}
	return b
}

func TestConnectAcceptDS(t *testing.T) {
	b := newBed(2, DefaultOptions())
	var server, client sock.Conn
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.subs[0].Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		server, _ = l.Accept(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		client, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if server == nil || client == nil {
		t.Fatal("connection not established")
	}
	if b.subs[0].ActiveSockets() != 1 || b.subs[1].ActiveSockets() != 1 {
		t.Fatal("active-socket table wrong")
	}
}

// transfer runs a one-directional transfer and returns bytes received.
func transfer(t *testing.T, b *bed, total, writeChunk, readChunk int) (int, []any) {
	t.Helper()
	var gotN int
	var gotObjs []any
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for gotN < total {
			n, objs, err := c.Read(p, readChunk)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			gotN += n
			gotObjs = append(gotObjs, objs...)
		}
		c.Close(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		sent := 0
		i := 0
		for sent < total {
			chunk := writeChunk
			if total-sent < chunk {
				chunk = total - sent
			}
			if _, err := c.Write(p, chunk, i); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			sent += chunk
			i++
		}
		c.Close(p)
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	return gotN, gotObjs
}

func TestDSTransferConservesBytesAndObjects(t *testing.T) {
	b := newBed(2, DefaultOptions())
	const total = 1 << 20
	gotN, objs := transfer(t, b, total, 10000, 4096)
	if gotN != total {
		t.Fatalf("received %d bytes, want %d", gotN, total)
	}
	want := (total + 9999) / 10000
	if len(objs) != want {
		t.Fatalf("received %d objects, want %d", len(objs), want)
	}
	for i, o := range objs {
		if o.(int) != i {
			t.Fatalf("objects out of order at %d: %v", i, o)
		}
	}
}

func TestDSStreamingSemantics(t *testing.T) {
	// One 10000-byte write read as many small reads: boundaries not
	// enforced (the data-streaming option).
	b := newBed(2, DefaultOptions())
	gotN, _ := transfer(t, b, 10000, 10000, 777)
	if gotN != 10000 {
		t.Fatalf("streamed %d bytes, want 10000", gotN)
	}
}

func TestDSLargeWriteChunksThroughCredits(t *testing.T) {
	// A single write far larger than Credits*bufSize must flow through
	// credit recycling.
	opts := DefaultOptions()
	opts.Credits = 4
	b := newBed(2, opts)
	const total = 1 << 20
	gotN, _ := transfer(t, b, total, total, 64<<10)
	if gotN != total {
		t.Fatalf("received %d bytes, want %d", gotN, total)
	}
	if b.subs[1].CreditStalls.Value == 0 {
		t.Fatal("expected credit stalls with a tiny credit window")
	}
}

func TestEOFAfterClose(t *testing.T) {
	b := newBed(2, DefaultOptions())
	var sawEOF bool
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		total := 0
		for {
			n, _, err := c.Read(p, 4096)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				sawEOF = total == 500
				c.Close(p)
				return
			}
			total += n
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, 500, nil)
		c.Close(p)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if !sawEOF {
		t.Fatal("EOF not seen after peer close")
	}
	// Resource management: all descriptors reclaimed, tables empty.
	if n := b.subs[0].ActiveSockets() + b.subs[1].ActiveSockets(); n != 0 {
		t.Fatalf("%d sockets leaked in active tables", n)
	}
}

func TestDescriptorsReclaimedOnClose(t *testing.T) {
	b := newBed(2, DefaultOptions())
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 2)
		c, _ := l.Accept(p)
		c.Read(p, 64) // observe close
		c.Close(p)
		l.Close(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, 64, nil)
		c.Close(p)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	// After closes and listener teardown no descriptors may remain
	// posted at either NIC.
	for i, s := range b.subs {
		if n := s.EP.PrepostedDescriptors(); n != 0 {
			t.Fatalf("substrate %d leaked %d posted descriptors", i, n)
		}
	}
}

func TestAsyncConnectDataRace(t *testing.T) {
	// The paper's web-server trick: the client writes immediately after
	// the connection request; the data must survive the race with the
	// server's accept (via retransmission or the unexpected queue).
	b := newBed(2, DefaultOptions())
	var got int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		p.Sleep(500 * sim.Microsecond) // dawdle before accepting
		c, _ := l.Accept(p)
		n, _, err := c.Read(p, 4096)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = n
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, 16, "req") // immediately, before accept
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if got != 16 {
		t.Fatalf("received %d bytes through the connect race, want 16", got)
	}
}

func TestSyncConnect(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncConnect = true
	b := newBed(2, opts)
	var dialTime sim.Duration
	var err error
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		l.Accept(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		start := p.Now()
		_, err = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		dialTime = p.Now().Sub(start)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if err != nil {
		t.Fatalf("sync dial: %v", err)
	}
	// Must take at least a round trip but far less than TCP's ~230 us.
	if us := dialTime.Micros(); us < 40 || us > 150 {
		t.Fatalf("sync connect took %.1f us, want a round-trip-ish value", us)
	}
}

// pingPong measures mean one-way latency over the substrate.
func pingPong(b *bed, n, iters int) sim.Duration {
	var total sim.Duration
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		for i := 0; i < iters; i++ {
			if _, _, err := sock.ReadFull(p, c, n); err != nil {
				return
			}
			c.Write(p, n, nil)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		if err != nil {
			return
		}
		for i := 0; i < iters; i++ {
			start := p.Now()
			c.Write(p, n, nil)
			sock.ReadFull(p, c, n)
			total += p.Now().Sub(start)
		}
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	return total / sim.Duration(2*iters)
}

func TestDGLatencyNear28us(t *testing.T) {
	// Paper anchor: Datagram sockets at 28.5 us — about 1 us over raw
	// EMP.
	b := newBed(2, DatagramOptions())
	lat := pingPong(b, 4, 50)
	if us := lat.Micros(); us < 26 || us > 33 {
		t.Fatalf("DG 4-byte latency %.2f us, want ~28.5", us)
	}
}

func TestDSLatencyNear37us(t *testing.T) {
	// Paper anchor: Data Streaming with all enhancements at ~37 us.
	b := newBed(2, DefaultOptions())
	lat := pingPong(b, 4, 50)
	if us := lat.Micros(); us < 32 || us > 42 {
		t.Fatalf("DS_DA_UQ 4-byte latency %.2f us, want ~37", us)
	}
}

func TestFig11Ordering(t *testing.T) {
	// Figure 11: DS (basic) > DS_DA > DS_DA_UQ > DG at small sizes.
	run := func(o Options) float64 {
		return pingPong(newBed(2, o), 4, 50).Micros()
	}
	ds := run(BasicDSOptions())
	da := func() Options { o := BasicDSOptions(); o.DelayedAcks = true; return o }()
	dsDA := run(da)
	dsDAUQ := run(DefaultOptions())
	dg := run(DatagramOptions())
	if !(ds > dsDA && dsDA > dsDAUQ && dsDAUQ > dg) {
		t.Fatalf("Figure 11 ordering violated: DS=%.2f DS_DA=%.2f DS_DA_UQ=%.2f DG=%.2f",
			ds, dsDA, dsDAUQ, dg)
	}
}

func TestCreditSweepLatencyDrops(t *testing.T) {
	// Figure 12: with delayed acks, latency falls as credits grow.
	run := func(credits int) float64 {
		o := DefaultOptions()
		o.UQAcks = false // keep ack descriptors in the walk
		o.Credits = credits
		return pingPong(newBed(2, o), 4, 50).Micros()
	}
	l1 := run(1)
	l32 := run(32)
	if l1 <= l32 {
		t.Fatalf("credit-1 latency %.2f should exceed credit-32 latency %.2f", l1, l32)
	}
}

func TestStreamBandwidthNear840(t *testing.T) {
	// Paper anchor: substrate peak bandwidth above 840 Mbps.
	b := newBed(2, DefaultOptions())
	const total = 16 << 20
	var start, end sim.Time
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		got := 0
		start = p.Now()
		for got < total {
			n, _, err := c.Read(p, 256<<10)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
		end = p.Now()
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		sent := 0
		for sent < total {
			c.Write(p, 256<<10, nil)
			sent += 256 << 10
		}
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	mbps := float64(total) * 8 / end.Sub(start).Seconds() / 1e6
	if mbps < 780 || mbps > 960 {
		t.Fatalf("substrate stream bandwidth %.0f Mbps, want ~840+", mbps)
	}
}

func TestRendezvousLargeDatagram(t *testing.T) {
	b := newBed(2, DatagramOptions())
	const size = 256 << 10
	var got int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		got, _, _ = c.Read(p, size)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, size, nil)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if got != size {
		t.Fatalf("rendezvous delivered %d, want %d", got, size)
	}
	if b.subs[1].RendezvousOps.Value != 1 {
		t.Fatalf("rendezvous ops = %d, want 1", b.subs[1].RendezvousOps.Value)
	}
}

func TestDGBoundariesPreserved(t *testing.T) {
	b := newBed(2, DatagramOptions())
	var sizes []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		for i := 0; i < 3; i++ {
			n, _, err := c.Read(p, 64<<10)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			sizes = append(sizes, n)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		for _, n := range []int{100, 5000, 1} {
			c.Write(p, n, nil)
			p.Sleep(100 * sim.Microsecond)
		}
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 5000 || sizes[2] != 1 {
		t.Fatalf("datagram boundaries not preserved: %v", sizes)
	}
}

func TestDGTruncationSemantics(t *testing.T) {
	b := newBed(2, DatagramOptions())
	var n int
	var err error
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		p.Sleep(300 * sim.Microsecond) // force the early-arrival path
		n, _, err = c.Read(p, 50)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		c.Write(p, 200, nil)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if err != sock.ErrMessageTruncated || n != 50 {
		t.Fatalf("truncated read = %d, %v", n, err)
	}
}

func TestSubstrateSelect(t *testing.T) {
	b := newBed(3, DefaultOptions())
	var order []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c1, _ := l.Accept(p)
		c2, _ := l.Accept(p)
		conns := []sock.Conn{c1, c2}
		items := []any{c1, c2}
		for len(order) < 2 {
			for _, i := range selectWait(p, b.eng, items, -1) {
				conns[i].Read(p, 4096)
				order = append(order, i)
			}
		}
	})
	for i, delay := range []sim.Duration{3 * sim.Millisecond, 500 * sim.Microsecond} {
		i, delay := i, delay
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * 20 * sim.Microsecond)
			c, err := b.subs[i+1].Dial(p, b.subs[0].Addr(), 80)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			p.Sleep(delay)
			c.Write(p, 64, nil)
		})
	}
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("select order %v, want [1 0]", order)
	}
}

func TestSelectTimeout(t *testing.T) {
	b := newBed(2, DefaultOptions())
	var ready []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		ready = selectWait(p, b.eng, []any{l}, 200*sim.Microsecond)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if ready != nil {
		t.Fatalf("select returned %v on timeout", ready)
	}
}

func TestCommThreadAblationCostsMore(t *testing.T) {
	// Section 5.2: the separate-communication-thread alternative adds
	// ~20 us synchronization per message — the reason it was rejected.
	base := pingPong(newBed(2, DefaultOptions()), 4, 30).Micros()
	o := DefaultOptions()
	o.CommThread = true
	threaded := pingPong(newBed(2, o), 4, 30).Micros()
	if threaded < base+15 {
		t.Fatalf("comm-thread latency %.1f should exceed base %.1f by ~20 us", threaded, base)
	}
}

func TestForceRendezvousAblation(t *testing.T) {
	// Rendezvous for every message roughly triples small-message
	// latency (request + ack + data).
	o := DatagramOptions()
	o.ForceRendezvous = true
	rend := pingPong(newBed(2, o), 4, 20).Micros()
	eager := pingPong(newBed(2, DatagramOptions()), 4, 20).Micros()
	if rend < 2*eager {
		t.Fatalf("forced rendezvous %.1f us should far exceed eager %.1f us", rend, eager)
	}
}

func TestBidirectionalSimultaneousWrites(t *testing.T) {
	// Both sides write before reading: with enough credits this must
	// not deadlock (the credit-based scheme tolerates up to N
	// outstanding writes).
	b := newBed(2, DefaultOptions())
	finished := 0
	for i := 0; i < 2; i++ {
		i := i
		b.eng.Spawn("node", func(p *sim.Proc) {
			var c sock.Conn
			if i == 0 {
				l, _ := b.subs[0].Listen(p, 80, 4)
				c, _ = l.Accept(p)
			} else {
				p.Sleep(10 * sim.Microsecond)
				c, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			}
			for j := 0; j < 8; j++ {
				c.Write(p, 4096, nil)
			}
			if _, _, err := sock.ReadFull(p, c, 8*4096); err != nil {
				t.Errorf("node %d read: %v", i, err)
			}
			finished++
		})
	}
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if finished != 2 {
		t.Fatalf("only %d/2 nodes finished — write-write deadlock?", finished)
	}
}

func TestManySequentialConnections(t *testing.T) {
	// Web-server-style connection churn: open, exchange, close, repeat.
	// Tags and descriptors must be recycled cleanly.
	opts := DefaultOptions()
	opts.Credits = 4
	b := newBed(2, opts)
	const rounds = 50
	served := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 8)
		for i := 0; i < rounds; i++ {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			if _, _, err := sock.ReadFull(p, c, 16); err == nil {
				c.Write(p, 1024, nil)
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
			sock.ReadFull(p, c, 1024)
			c.Close(p)
		}
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if served != rounds {
		t.Fatalf("served %d/%d connections", served, rounds)
	}
	if b.subs[0].ActiveSockets()+b.subs[1].ActiveSockets() != 0 {
		t.Fatal("sockets leaked after churn")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		return pingPong(newBed(2, DefaultOptions()), 1024, 20).Micros()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
}

package tcpip

import (
	"sort"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/kernel"
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
	eng    *sim.Engine
	sw     *ethernet.Switch
	stacks []*Stack
}

func newBed(n int, cfg StackConfig) *bed {
	b := &bed{eng: sim.NewEngine()}
	b.sw = ethernet.NewSwitch(b.eng)
	for i := 0; i < n; i++ {
		h := kernel.NewHost(b.eng, "h", 4)
		b.stacks = append(b.stacks, NewStackOnPort(b.eng, h, b.sw.Attach(nil), telemetry.New(), cfg))
	}
	return b
}

// lossyBed is a default bed whose switch drops each frame with the
// given probability.
func lossyBed(n int, cfg StackConfig, loss float64) *bed {
	b := newBed(n, cfg)
	b.sw.SetFaults(&faults.Plan{Clauses: []faults.Clause{faults.Uniform(loss, 0, 0, 0)}})
	return b
}

func defaultBed(n int) *bed {
	return newBed(n, DefaultStackConfig())
}

func TestConnectAcceptRoundTrip(t *testing.T) {
	b := defaultBed(2)
	var accepted, dialed sock.Conn
	var dialErr error
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.stacks[0].Listen(p, 80, 5)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		accepted, _ = l.Accept(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		dialed, dialErr = b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if dialErr != nil {
		t.Fatalf("dial: %v", dialErr)
	}
	if accepted == nil || dialed == nil {
		t.Fatal("handshake did not complete")
	}
	if accepted.RemoteAddr() != b.stacks[1].Addr() {
		t.Fatal("accepted connection has wrong peer")
	}
}

func TestConnectionRefusedWithoutListener(t *testing.T) {
	b := defaultBed(2)
	var err error
	b.eng.Spawn("client", func(p *sim.Proc) {
		_, err = b.stacks[1].Dial(p, b.stacks[0].Addr(), 9999)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if err != sock.ErrRefused {
		t.Fatalf("dial error = %v, want refused (RST answering SYN)", err)
	}
}

func TestDataTransferAndObjects(t *testing.T) {
	b := defaultBed(2)
	var gotN int
	var gotObjs []any
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		c, _ := l.Accept(p)
		for gotN < 50000 {
			n, objs, err := c.Read(p, 64<<10)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			gotN += n
			gotObjs = append(gotObjs, objs...)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, 20000, "first")
		c.Write(p, 30000, "second")
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if gotN != 50000 {
		t.Fatalf("received %d bytes, want 50000", gotN)
	}
	if len(gotObjs) != 2 || gotObjs[0] != "first" || gotObjs[1] != "second" {
		t.Fatalf("objects %v", gotObjs)
	}
}

func TestEOFAfterClose(t *testing.T) {
	b := defaultBed(2)
	var eofSeen bool
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		c, _ := l.Accept(p)
		total := 0
		for {
			n, _, err := c.Read(p, 4096)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				eofSeen = true
				if total != 1000 {
					t.Errorf("EOF after %d bytes, want 1000", total)
				}
				c.Close(p)
				return
			}
			total += n
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, _ := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		c.Write(p, 1000, nil)
		c.Close(p)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if !eofSeen {
		t.Fatal("EOF never delivered after close")
	}
	// Both connection endpoints should eventually be reaped.
	if b.stacks[0].conns.len()+b.stacks[1].conns.len() != 0 {
		t.Fatalf("connections leaked: %d/%d", b.stacks[0].conns.len(), b.stacks[1].conns.len())
	}
}

// tcpPingPong measures mean one-way latency for n-byte messages.
func tcpPingPong(b *bed, n, iters int) sim.Duration {
	var total sim.Duration
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
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
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
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

func TestTCPLatencyNear120us(t *testing.T) {
	// The paper's anchor: kernel TCP 4-byte one-way latency ~120 us.
	b := defaultBed(2)
	lat := tcpPingPong(b, 4, 30)
	if us := lat.Micros(); us < 95 || us > 150 {
		t.Fatalf("TCP 4-byte latency %.1f us, want ~120 us", us)
	}
}

// tcpStream measures streaming bandwidth in Mbps.
func tcpStream(b *bed, total int) float64 {
	var start, end sim.Time
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		c, _ := l.Accept(p)
		got := 0
		start = p.Now()
		for got < total {
			n, _, err := c.Read(p, 64<<10)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
		end = p.Now()
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			return
		}
		sent := 0
		for sent < total {
			chunk := 64 << 10
			if total-sent < chunk {
				chunk = total - sent
			}
			c.Write(p, chunk, nil)
			sent += chunk
		}
	})
	b.eng.RunUntil(sim.Time(120 * sim.Second))
	if end <= start {
		return 0
	}
	return float64(total) * 8 / end.Sub(start).Seconds() / 1e6
}

func TestTCPBandwidthDefaultBuffers(t *testing.T) {
	// The paper's anchor: ~340 Mbps with the 16 KB default socket
	// buffers (window-limited).
	b := defaultBed(2)
	mbps := tcpStream(b, 8<<20)
	if mbps < 250 || mbps > 430 {
		t.Fatalf("TCP bandwidth (16KB buffers) = %.0f Mbps, want ~340", mbps)
	}
}

func TestTCPBandwidthBigBuffers(t *testing.T) {
	// The paper's anchor: ~550 Mbps with enlarged buffers (CPU-limited).
	b := newBed(2, BigBufferConfig())
	mbps := tcpStream(b, 16<<20)
	if mbps < 450 || mbps > 650 {
		t.Fatalf("TCP bandwidth (big buffers) = %.0f Mbps, want ~550", mbps)
	}
}

func TestBigBuffersBeatDefault(t *testing.T) {
	small := tcpStream(defaultBed(2), 16<<20)
	big := tcpStream(newBed(2, BigBufferConfig()), 16<<20)
	if big <= small {
		t.Fatalf("big buffers (%.0f Mbps) should beat 16KB buffers (%.0f Mbps)", big, small)
	}
}

func TestConnectionTime200to250us(t *testing.T) {
	// The paper: TCP connection establishment costs ~200-250 us.
	b := defaultBed(2)
	var connectTime sim.Duration
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		l.Accept(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		start := p.Now()
		if _, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80); err == nil {
			connectTime = p.Now().Sub(start)
		}
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if us := connectTime.Micros(); us < 150 || us > 320 {
		t.Fatalf("connect time %.0f us, want ~200-250 us", us)
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	b := lossyBed(2, DefaultStackConfig(), 0.02)
	b.eng.Seed(11)
	const total = 2 << 20
	got := 0
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		c, _ := l.Accept(p)
		for got < total {
			n, _, err := c.Read(p, 64<<10)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got += n
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		c, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial under loss: %v", err)
			return
		}
		sent := 0
		for sent < total {
			c.Write(p, 64<<10, nil)
			sent += 64 << 10
		}
	})
	b.eng.RunUntil(sim.Time(600 * sim.Second))
	if got < total {
		t.Fatalf("received %d/%d under 2%% loss", got, total)
	}
	if b.stacks[1].Rexmits.Value+b.stacks[1].FastRetransmits.Value == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestSelectAcrossConnections(t *testing.T) {
	b := defaultBed(3)
	var readyOrder []int
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		c1, _ := l.Accept(p)
		c2, _ := l.Accept(p)
		conns := []sock.Conn{c1, c2}
		items := []any{c1, c2}
		for len(readyOrder) < 2 {
			ready := selectWait(p, b.eng, items, -1)
			for _, idx := range ready {
				conns[idx].Read(p, 4096)
				readyOrder = append(readyOrder, idx)
			}
		}
	})
	for i, delay := range []sim.Duration{5 * sim.Millisecond, 1 * sim.Millisecond} {
		i, delay := i, delay
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * 10 * sim.Microsecond)
			c, err := b.stacks[i+1].Dial(p, b.stacks[0].Addr(), 80)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			p.Sleep(delay)
			c.Write(p, 100, nil)
		})
	}
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if len(readyOrder) != 2 || readyOrder[0] != 1 || readyOrder[1] != 0 {
		t.Fatalf("select ready order %v, want [1 0] (second client writes first)", readyOrder)
	}
}

func TestSelectTimeout(t *testing.T) {
	b := defaultBed(2)
	var ready []int
	var elapsed sim.Duration
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		start := p.Now()
		ready = selectWait(p, b.eng, []any{l}, 500*sim.Microsecond)
		elapsed = p.Now().Sub(start)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if ready != nil {
		t.Fatalf("select returned ready=%v on timeout", ready)
	}
	if elapsed < 500*sim.Microsecond {
		t.Fatalf("select returned after %v, before the timeout", elapsed)
	}
}

func TestSelectOnListener(t *testing.T) {
	b := defaultBed(2)
	accepted := false
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 5)
		ready := selectWait(p, b.eng, []any{l}, -1)
		if len(ready) == 1 && ready[0] == 0 {
			l.Accept(p)
			accepted = true
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if !accepted {
		t.Fatal("select did not report the listener acceptable")
	}
}

func TestUDPDatagramExchange(t *testing.T) {
	b := defaultBed(2)
	var gotN int
	var gotObj any
	b.eng.Spawn("server", func(p *sim.Proc) {
		u, _ := b.stacks[0].UDPOpen(p, 5000)
		gotN, gotObj, _, _, _ = u.RecvFrom(p, 64<<10)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		u, _ := b.stacks[1].UDPOpen(p, 0)
		u.SendTo(p, b.stacks[0].Addr(), 5000, 1000, "dgram")
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if gotN != 1000 || gotObj != "dgram" {
		t.Fatalf("udp recv = %d %v", gotN, gotObj)
	}
}

func TestUDPFragmentationReassembly(t *testing.T) {
	b := defaultBed(2)
	const size = 9000 // spans multiple IP fragments
	var gotN int
	b.eng.Spawn("server", func(p *sim.Proc) {
		u, _ := b.stacks[0].UDPOpen(p, 5000)
		gotN, _, _, _, _ = u.RecvFrom(p, 64<<10)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		u, _ := b.stacks[1].UDPOpen(p, 0)
		u.SendTo(p, b.stacks[0].Addr(), 5000, size, nil)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if gotN != size {
		t.Fatalf("reassembled %d bytes, want %d", gotN, size)
	}
}

func TestUDPTruncation(t *testing.T) {
	b := defaultBed(2)
	var err error
	var n int
	b.eng.Spawn("server", func(p *sim.Proc) {
		u, _ := b.stacks[0].UDPOpen(p, 5000)
		n, _, _, _, err = u.RecvFrom(p, 100)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		u, _ := b.stacks[1].UDPOpen(p, 0)
		u.SendTo(p, b.stacks[0].Addr(), 5000, 1000, nil)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if err != sock.ErrMessageTruncated || n != 100 {
		t.Fatalf("truncated recv = %d, %v", n, err)
	}
}

func TestPortInUse(t *testing.T) {
	b := defaultBed(1)
	var err error
	b.eng.Spawn("s", func(p *sim.Proc) {
		b.stacks[0].Listen(p, 80, 5)
		_, err = b.stacks[0].Listen(p, 80, 5)
	})
	b.eng.Run()
	if err != sock.ErrInUse {
		t.Fatalf("second listen err = %v, want ErrInUse", err)
	}
}

func TestInterruptCoalescingBatches(t *testing.T) {
	// Streaming should produce far fewer interrupts than segments.
	b := defaultBed(2)
	tcpStream(b, 4<<20)
	segs := b.stacks[0].SegsIn.Value
	intrs := b.stacks[0].Interrupts.Value
	if intrs == 0 || segs == 0 {
		t.Fatal("no traffic recorded")
	}
	if float64(intrs) > 0.6*float64(segs) {
		t.Fatalf("interrupts %d vs segments %d: coalescing ineffective", intrs, segs)
	}
}

package core

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

// failureBound is how much simulated time peer-death detection may take
// after the crash: the EMP retry budget (40 timeouts, each at
// most the 5 ms RTO cap) plus generous slack for keepalive scheduling.
const failureBound = 500 * sim.Millisecond

// TestWriterGetsResetAfterPeerCrash: a client streaming data to a peer
// whose substrate dies mid-run must observe sock.ErrReset on Write
// within the retry-budget bound, and the failed connection must leave
// zero descriptors and zero active-table entries behind.
func TestWriterGetsResetAfterPeerCrash(t *testing.T) {
	b := newBed(2, DefaultOptions())
	const killAt = 20 * sim.Millisecond

	var wrErr error
	var errAt sim.Time
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.subs[0].Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return // killed before/while accepting
		}
		for {
			if _, _, err := conn.Read(p, 1<<20); err != nil {
				return
			}
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			if _, err := conn.Write(p, 8<<10, nil); err != nil {
				wrErr, errAt = err, p.Now()
				return
			}
		}
	})
	b.eng.At(sim.Time(killAt), func() { b.subs[0].Kill() })
	b.eng.RunUntil(sim.Time(2 * sim.Second))

	if wrErr != sock.ErrReset {
		t.Fatalf("write to crashed peer returned %v, want sock.ErrReset", wrErr)
	}
	if d := sim.Duration(errAt) - killAt; d > failureBound {
		t.Fatalf("failure detected %v after the crash, bound %v", d, failureBound)
	}
	if n := b.subs[1].ConnsFailed.Value; n == 0 {
		t.Fatal("ConnsFailed not counted on the surviving side")
	}
	// No leaks on the survivor: the aborted connection left the active
	// table and unposted every descriptor.
	if n := b.subs[1].ActiveSockets(); n != 0 {
		t.Fatalf("%d sockets leaked in the active table", n)
	}
	if n := b.subs[1].EP.PrepostedDescriptors(); n != 0 {
		t.Fatalf("%d descriptors leaked at the NIC", n)
	}
	b.subs[1].PurgeStale()
	if n := b.subs[1].EP.UnexpectedQueued(); n != 0 {
		t.Fatalf("%d unexpected-queue entries leaked", n)
	}
}

// TestKeepaliveDetectsIdlePeerCrash: a client blocked in Read with no
// data to send must still detect the peer's death — via the keepalive
// probe riding EMP reliability — and wake with sock.ErrReset.
func TestKeepaliveDetectsIdlePeerCrash(t *testing.T) {
	opts := DefaultOptions()
	opts.Recovery = true
	b := newBed(2, opts)
	const killAt = 20 * sim.Millisecond

	var rdErr error
	var errAt sim.Time
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.subs[0].Listen(p, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		conn.Read(p, 1<<20) // block forever; the host dies under us
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		_, _, err = conn.Read(p, 1<<20) // no traffic: only keepalives probe
		rdErr, errAt = err, p.Now()
	})
	b.eng.At(sim.Time(killAt), func() { b.subs[0].Kill() })
	b.eng.RunUntil(sim.Time(2 * sim.Second))

	if rdErr != sock.ErrReset {
		t.Fatalf("idle read against crashed peer returned %v, want sock.ErrReset", rdErr)
	}
	if d := sim.Duration(errAt) - killAt; d > failureBound {
		t.Fatalf("keepalive detection took %v after the crash, bound %v", d, failureBound)
	}
	if b.subs[1].KeepalivesSent.Value == 0 {
		t.Fatal("no keepalive probes were sent")
	}
	if n := b.subs[1].ActiveSockets(); n != 0 {
		t.Fatalf("%d sockets leaked in the active table", n)
	}
	if n := b.subs[1].EP.PrepostedDescriptors(); n != 0 {
		t.Fatalf("%d descriptors leaked at the NIC", n)
	}
}

// TestDialRetriesThenTimesOut: a synchronous connect to a port nobody
// answers must retry with backoff and then surface sock.ErrTimeout.
func TestDialRetriesThenTimesOut(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncConnect = true
	opts.DialRetries = 2
	b := newBed(2, opts)

	var dialErr error
	b.eng.Spawn("client", func(p *sim.Proc) {
		// Nothing listens on port 99: the request parks in the server's
		// unexpected queue and no reply ever comes.
		_, dialErr = b.subs[1].Dial(p, b.subs[0].Addr(), 99)
	})
	b.eng.RunUntil(sim.Time(sim.Second))

	if dialErr != sock.ErrTimeout {
		t.Fatalf("dial with no listener returned %v, want sock.ErrTimeout", dialErr)
	}
	if n := b.subs[1].DialRetries.Value; n != 2 {
		t.Fatalf("DialRetries = %d, want 2", n)
	}
	if n := b.subs[1].ActiveSockets(); n != 0 {
		t.Fatalf("%d sockets leaked after failed dials", n)
	}
	if n := b.subs[1].EP.PrepostedDescriptors(); n != 0 {
		t.Fatalf("%d descriptors leaked after failed dials", n)
	}
}

// TestAcceptWakesOnLocalKill: Accept blocked on an empty backlog must
// return sock.ErrClosed when its own substrate is killed, not hang.
func TestAcceptWakesOnLocalKill(t *testing.T) {
	b := newBed(1, DefaultOptions())
	var acceptErr error
	done := false
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, err := b.subs[0].Listen(p, 80, 2)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		_, acceptErr = l.Accept(p)
		done = true
	})
	b.eng.At(sim.Time(10*sim.Millisecond), func() { b.subs[0].Kill() })
	b.eng.RunUntil(sim.Time(sim.Second))
	if !done {
		t.Fatal("Accept still blocked after local kill")
	}
	if acceptErr != sock.ErrClosed {
		t.Fatalf("Accept on killed substrate returned %v, want sock.ErrClosed", acceptErr)
	}
}

// TestKillFailsConnsInDeterministicOrder: Kill fails every live
// connection, and each failure wakes that connection's blocked readers
// and dumps its flight ring. With several readers blocked, repeated runs
// under one seed must record the dumps in the same order — the walk
// must not follow map iteration order.
func TestKillFailsConnsInDeterministicOrder(t *testing.T) {
	const readers = 4
	kill := func() []string {
		b := newBed(3, DefaultOptions())
		b.eng.Seed(7)
		b.eng.Spawn("server", func(p *sim.Proc) {
			l, err := b.subs[0].Listen(p, 80, readers)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			for i := 0; i < readers; i++ {
				c, err := l.Accept(p)
				if err != nil {
					return
				}
				p.Engine().Spawn("reader", func(p *sim.Proc) {
					c.Read(p, 64) // blocked until the kill
				})
			}
		})
		for i := 0; i < readers; i++ {
			i := i
			b.eng.Spawn("client", func(p *sim.Proc) {
				p.Sleep(sim.Duration(10+10*i) * sim.Microsecond)
				if _, err := b.subs[1+i%2].Dial(p, b.subs[0].Addr(), 80); err != nil {
					t.Errorf("dial %d: %v", i, err)
				}
			})
		}
		b.eng.At(sim.Time(5*sim.Millisecond), b.subs[0].Kill)
		b.eng.RunUntil(sim.Time(10 * sim.Millisecond))
		var order []string
		for _, d := range b.subs[0].Tel.Dumps() {
			order = append(order, d.Conn)
		}
		return order
	}
	want := kill()
	if len(want) != readers {
		t.Fatalf("kill dumped %d flight rings %v, want %d", len(want), want, readers)
	}
	for run := 1; run < 20; run++ {
		if got := kill(); !slices.Equal(got, want) {
			t.Fatalf("run %d dumped %v, run 0 dumped %v", run, got, want)
		}
	}
}

// TestWedgedBounds pins the substrate monitor's wedge bound: a credit
// stall or an outstanding send wait wedges the connection at exactly
// healthWedgeStall, and a failed or cleaned connection is wedged
// whatever its age.
func TestWedgedBounds(t *testing.T) {
	const at = sim.Time(100 * sim.Millisecond)
	b := newBed(1, DefaultOptions())
	cases := []struct {
		name string
		conn Conn
		want bool
	}{
		{"idle", Conn{}, false},
		{"stall just under", Conn{stallSince: at.Add(-(20*sim.Millisecond - 1))}, false},
		{"stall at bound", Conn{stallSince: at.Add(-20 * sim.Millisecond)}, true},
		{"send wait just under", Conn{sendSince: at.Add(-(20*sim.Millisecond - 1))}, false},
		{"send wait at bound", Conn{sendSince: at.Add(-20 * sim.Millisecond)}, true},
		{"failed", Conn{err: sock.ErrReset}, true},
		{"cleaned", Conn{cleaned: true}, true},
	}
	b.eng.At(at, func() {
		for _, tc := range cases {
			c := tc.conn
			c.sub = b.subs[0]
			if got := c.Wedged(); got != tc.want {
				t.Errorf("%s: Wedged = %v, want %v", tc.name, got, tc.want)
			}
		}
	})
	b.eng.Run()
}

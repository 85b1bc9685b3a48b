package tcpip

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

// A warm segment round trip — a write, its segment on the wire, its
// delivery and the read that drains it, then the delayed ack that
// answers it — allocates a bounded number of objects. The test opens
// one connection, runs a round before measuring so every buffer and
// table has reached its steady-state size, and bounds the count
// measured on this code, so an allocation added to the segment path
// fails it.
func TestSegmentRoundTripAllocations(t *testing.T) {
	b := defaultBed(2)
	var client, server sock.Conn
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 1)
		server, _ = l.Accept(p)
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		client, _ = b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
	})
	b.eng.Run()
	if client == nil || server == nil {
		t.Fatal("handshake did not complete")
	}

	// One proc per side, released once per step; each step runs the
	// engine to quiescence, which includes the delayed ack's timer.
	write := sim.NewSemaphore(b.eng, "write", 0)
	read := sim.NewSemaphore(b.eng, "read", 0)
	var got int
	var err error
	b.eng.Spawn("writer", func(p *sim.Proc) {
		for {
			write.Acquire(p)
			if _, err := client.Write(p, 64, nil); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	})
	b.eng.Spawn("reader", func(p *sim.Proc) {
		for {
			read.Acquire(p)
			got, _, err = server.Read(p, 64)
		}
	})
	step := func() {
		write.Release()
		read.Release()
		b.eng.Run()
	}
	step()
	const want = 6
	if n := testing.AllocsPerRun(200, step); n > want {
		t.Fatalf("write, segment, delivery and read allocate %v times per step, want at most %v", n, want)
	}
	if err != nil || got != 64 {
		t.Fatalf("read %d bytes, err %v; want 64", got, err)
	}
}

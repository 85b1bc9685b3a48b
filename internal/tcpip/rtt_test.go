package tcpip

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

func TestRTTEstimatorConverges(t *testing.T) {
	b := defaultBed(2)
	var client *conn
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.stacks[0].Listen(p, 80, 4)
		c, _ := l.Accept(p)
		for i := 0; i < 20; i++ {
			if _, _, err := sock.ReadFull(p, c, 1000); err != nil {
				return
			}
			c.Write(p, 4, nil)
		}
	})
	b.eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		sc, err := b.stacks[1].Dial(p, b.stacks[0].Addr(), 80)
		if err != nil {
			return
		}
		client = sc.(*conn)
		for i := 0; i < 20; i++ {
			sc.Write(p, 1000, nil)
			sock.ReadFull(p, sc, 4)
		}
	})
	b.eng.RunUntil(sim.Time(30 * sim.Second))
	if client == nil || client.srtt == 0 {
		t.Fatal("no round-trip samples collected")
	}
	// The data->ack round trip with coalescing is on the order of
	// 100-400 us; the estimator must land in that regime, not at the
	// 200 ms floor.
	if us := client.srtt.Micros(); us < 30 || us > 800 {
		t.Fatalf("srtt = %.0f us, implausible for this fabric", us)
	}
	if client.rttvar < 0 {
		t.Fatalf("rttvar negative: %v", client.rttvar)
	}
}

func TestRTOClampedToFloorAndCeiling(t *testing.T) {
	b := defaultBed(1)
	c := newConn(b.stacks[0], 1, 0, 2)
	if got := c.rto(); got != minRTO {
		t.Fatalf("no-sample rto = %v, want the floor", got)
	}
	c.rttSample(3 * sim.Second)
	c.rttSample(3 * sim.Second)
	if got := c.rto(); got != maxRTO {
		t.Fatalf("huge samples should clamp to the ceiling: %v", got)
	}
	c2 := newConn(b.stacks[0], 1, 0, 3)
	c2.rttSample(-5) // nonsense sample discarded
	if c2.srtt != 0 {
		t.Fatal("negative sample accepted")
	}
}

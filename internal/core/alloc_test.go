package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sock"
)

// One warm echo exchange over the substrate — a 64 B Write and the
// matching Read on both sides — allocates a bounded number of objects:
// the EMP handles, the wire frames and the substrate's headers. The
// connection is established and one exchange runs before measuring, so
// every queue has reached its steady-state size; the bound is the count
// measured on this code, so a new allocation per message fails it.
func TestEchoExchangeAllocations(t *testing.T) {
	b := newBed(2, DefaultOptions())
	var client sock.Conn
	b.eng.Spawn("server", func(p *sim.Proc) {
		l, _ := b.subs[0].Listen(p, 80, 4)
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			n, objs, err := c.Read(p, 64)
			if err != nil || n == 0 {
				return
			}
			if _, err := c.Write(p, n, objs[len(objs)-1]); err != nil {
				return
			}
		}
	})
	b.eng.Spawn("dial", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		client, _ = b.subs[1].Dial(p, b.subs[0].Addr(), 80)
	})
	b.eng.Run()
	if client == nil {
		t.Fatal("connection not established")
	}
	msg := new(int) // the payload object; the reply must carry the same one
	echoed := 0
	next := sim.NewSemaphore(b.eng, "step", 0)
	b.eng.Spawn("client", func(p *sim.Proc) {
		for {
			next.Acquire(p)
			if _, err := client.Write(p, 64, msg); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			n, objs, err := client.Read(p, 64)
			if err != nil || n != 64 || len(objs) != 1 || objs[0] != any(msg) {
				t.Errorf("read %d bytes %v: %v", n, objs, err)
				return
			}
			echoed++
		}
	})
	step := func() {
		next.Release()
		b.eng.Run()
	}
	step()
	const want = 22
	if n := testing.AllocsPerRun(200, step); n > want {
		t.Fatalf("a 64 B echo exchange allocates %v times, want at most %v", n, want)
	}
	if echoed != 202 {
		t.Fatalf("%d exchanges echoed, want 202", echoed)
	}
}

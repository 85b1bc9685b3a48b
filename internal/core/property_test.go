package core

import (
	"testing"
	"testing/quick"

	"repro/internal/emp"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Property: the tag allocator never hands out a tag that is still in
// use, for any interleaving of allocations and frees.
func TestTagAllocatorUniquenessProperty(t *testing.T) {
	f := func(ops []bool) bool {
		b := newBed(1, DefaultOptions())
		s := b.subs[0]
		live := map[emp.Tag]bool{}
		var order []emp.Tag
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				tag := s.allocTag()
				if live[tag] {
					return false // double allocation
				}
				if tag >= listenTagBase {
					return false // leaked into the listen-tag region
				}
				live[tag] = true
				order = append(order, tag)
			} else {
				tag := order[0]
				order = order[1:]
				delete(live, tag)
				s.freeTag(tag)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalize is idempotent and never produces invalid options.
func TestOptionsNormalizeProperty(t *testing.T) {
	f := func(credits, retries, budget int32) bool {
		o := DefaultOptions()
		o.Credits = int(credits % 100)
		o.DialRetries = int(retries % 100)
		o.EagerBudget = int(budget % (1 << 20))
		n := o.normalize()
		if n.Credits < 1 || n.DialRetries < 0 || n.EagerBudget < 0 {
			return false
		}
		return n.normalize() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any sequence of write sizes, a DS transfer conserves
// bytes and delivers attached objects in order. This drives the whole
// substrate (chunking, credits, acks, sequence holdback) with
// randomized workloads.
func TestTransferConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		opts := DefaultOptions()
		opts.Credits = 4
		b := newBed(2, opts)
		// Writes of up to 2.5 temp buffers, so chunking is exercised.
		size := func(s uint16) int { return int(s%20000)*8 + 1 }
		want := 0
		for _, s := range sizes {
			want += size(s)
		}
		got := 0
		var objs []any
		b.eng.Spawn("server", func(p *sim.Proc) {
			l, _ := b.subs[0].Listen(p, 80, 4)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for got < want {
				n, o, err := c.Read(p, 64<<10)
				if err != nil || n == 0 {
					return
				}
				got += n
				objs = append(objs, o...)
			}
		})
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			if err != nil {
				return
			}
			for i, s := range sizes {
				c.Write(p, size(s), i)
			}
		})
		b.eng.RunUntil(sim.Time(60 * sim.Second))
		if got != want || len(objs) != len(sizes) {
			return false
		}
		for i, o := range objs {
			if o.(int) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: credits never go negative and never exceed the configured
// window during a randomized request/response exchange.
func TestCreditInvariantProperty(t *testing.T) {
	f := func(seed uint8) bool {
		opts := DefaultOptions()
		opts.Credits = 4
		b := newBed(2, opts)
		b.eng.Seed(uint64(seed) + 1)
		violated := false
		check := func(c sock.Conn) {
			cc := c.(*Conn)
			if cc.credits < 0 || cc.credits > cc.opts.Credits {
				violated = true
			}
		}
		b.eng.Spawn("server", func(p *sim.Proc) {
			l, _ := b.subs[0].Listen(p, 80, 4)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for i := 0; i < 10; i++ {
				if _, _, err := sock.ReadFull(p, c, 512); err != nil {
					return
				}
				check(c)
				c.Write(p, 512, nil)
				check(c)
			}
		})
		b.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			c, err := b.subs[1].Dial(p, b.subs[0].Addr(), 80)
			if err != nil {
				return
			}
			for i := 0; i < 10; i++ {
				c.Write(p, 512, nil)
				check(c)
				sock.ReadFull(p, c, 512)
				check(c)
			}
		})
		b.eng.RunUntil(sim.Time(30 * sim.Second))
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

package sim

import (
	"sort"
	"testing"
)

// schedRec is one event of a random schedule, keyed as the engine keys
// it: (at, seq).
type schedRec struct {
	id        int
	at        Time
	seq       uint64
	h         Event
	cancelled bool
}

func (r *schedRec) before(o *schedRec) bool {
	return r.at < o.at || r.at == o.at && r.seq < o.seq
}

// Property: with any mix of At, AtArg, Cancel, Sleep, SleepIdle and
// same-instant ties, compaction running whenever cancelled entries pile
// up and sleeps woken in place whenever nothing fires first, the engine
// fires exactly the events never cancelled, sorted by (at, seq), and
// counts them in Events().
func TestEngineCompactionKeepsOrder(t *testing.T) {
	compactions, inPlace := 0, int64(0)
	for seed := uint64(1); seed <= 30; seed++ {
		c, w := checkRandomSchedule(t, seed)
		compactions += c
		inPlace += w
	}
	if compactions == 0 {
		t.Fatal("no schedule compacted the queue; the property was not exercised")
	}
	if inPlace == 0 {
		t.Fatal("no sleep woke in place; the property was not exercised")
	}
}

// checkRandomSchedule runs one seeded schedule against a sorted
// reference list and returns how many times the queue was compacted and
// how many sleeps woke in place.
func checkRandomSchedule(t *testing.T, seed uint64) (int, int64) {
	t.Helper()
	e := NewEngine()
	r := NewRand(seed)
	var recs []*schedRec
	var fired []*schedRec
	var cur *schedRec // the event firing now; nil before the run
	budget, compactions := 2000, 0

	var act func()
	fire := func(rec *schedRec) {
		cur = rec
		fired = append(fired, rec)
		act()
	}
	fireArg := func(a any) { fire(a.(*schedRec)) }
	// pending is the reference's view: scheduled, not cancelled, and
	// not yet fired, which the (at, seq) order decides.
	pending := func(rec *schedRec) bool {
		return !rec.cancelled && rec.h.eng != nil && (cur == nil || cur.before(rec))
	}
	act = func() {
		for k := r.Intn(4); k > 0 && budget > 0; k-- {
			budget--
			var d Duration
			switch r.Intn(4) {
			case 0: // a same-instant tie
			case 1:
				d = Duration(r.Intn(50) + 1)
			default: // a timer that is usually cancelled before it fires
				d = Duration(r.Intn(5000) + 200)
			}
			rec := &schedRec{id: len(recs), at: e.Now().Add(d), seq: e.seq}
			recs = append(recs, rec)
			if r.Bool(0.5) {
				rec.h = e.At(rec.at, func() { fire(rec) })
			} else {
				rec.h = e.AtArg(rec.at, fireArg, rec)
			}
		}
		for k := r.Intn(4); k > 0 && len(recs) > 0; k-- {
			rec := recs[r.Intn(len(recs))]
			if rec.h.Pending() != pending(rec) {
				t.Fatalf("seed %d: event %d Pending() = %v, reference says %v", seed, rec.id, rec.h.Pending(), pending(rec))
			}
			if pending(rec) {
				rec.cancelled = true
			}
			dead := e.dead
			rec.h.Cancel()
			if dead > 0 && e.dead == 0 {
				compactions++
			}
		}
	}
	// An idle ticker with work every tick fires like any event.
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for ; ticks < 40; ticks++ {
			d := Duration(r.Intn(300))
			rec := &schedRec{id: len(recs), at: p.Now().Add(d), seq: e.seq}
			recs = append(recs, rec)
			p.SleepIdle(d, func() bool { return true })
			fire(rec)
		}
	})
	// A busy sleeper, whose wakeups are taken in place whenever no
	// queued event fires first.
	sleeps := 0
	e.Spawn("sleeper", func(p *Proc) {
		for ; sleeps < 40; sleeps++ {
			d := Duration(r.Intn(100))
			rec := &schedRec{id: len(recs), at: p.Now().Add(d), seq: e.seq}
			recs = append(recs, rec)
			p.Sleep(d)
			fire(rec)
		}
	})
	e.RunUntil(0) // the procs' first steps, which are not recorded events
	for i := 0; i < 20; i++ {
		act()
	}
	e.Run()

	var want []*schedRec
	for _, rec := range recs {
		if !rec.cancelled {
			want = append(want, rec)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	if len(fired) != len(want) {
		t.Fatalf("seed %d: %d events fired, want %d", seed, len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("seed %d: fire %d was event %d, want event %d", seed, i, fired[i].id, want[i].id)
		}
	}
	if got := e.Events(); got != int64(len(want))+2 {
		t.Fatalf("seed %d: Events() = %d, want %d (the procs' starts and every recorded fire)", seed, got, len(want)+2)
	}
	if ticks != 40 || sleeps != 40 || len(e.events) != 0 || e.dead != 0 {
		t.Fatalf("seed %d: %d ticks, %d sleeps, %d entries and %d cancelled left; want 40, 40, 0, 0", seed, ticks, sleeps, len(e.events), e.dead)
	}
	return compactions, e.inPlace
}

// A timer re-armed before it ever fires, as a TCP retransmission timer
// is on every ack, leaves one cancelled entry per arm; compaction keeps
// the queue within twice its live entries, plus the 64 it tolerates.
func TestEngineRearmedTimerKeepsQueueShallow(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	var rto Event
	n := 0
	var tick func()
	tick = func() {
		rto.Cancel()
		rto = e.After(200*Millisecond, noop)
		live := 0
		for _, x := range e.events {
			if !e.slots[x.ref].dead {
				live++
			}
		}
		if bound := live + max(live, compactMin) + 1; len(e.events) > bound {
			t.Fatalf("arm %d: %d queued entries, %d live; want at most %d", n, len(e.events), live, bound)
		}
		if n++; n < 10000 {
			e.After(10*Microsecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if n != 10000 || e.Events() != 10001 {
		t.Fatalf("%d arms and %d events fired, want 10000 and 10001", n, e.Events())
	}
}

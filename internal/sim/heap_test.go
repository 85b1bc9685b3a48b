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

// schedKey is an event's heap key, which names it uniquely.
type schedKey struct {
	at  Time
	seq uint64
}

// Property: with any mix of At, AtArg, Cancel, Sleep, SleepIdle and
// same-instant ties, cancels removing entries from anywhere in the heap
// and sleeps woken in place whenever nothing fires first, the engine
// fires exactly the events never cancelled, sorted by (at, seq), and
// counts them in Events(). After every cancel and every fire, each
// queued entry's slot records the entry's index, the heap is ordered and
// the queue holds exactly the live events.
func TestEngineIndexedHeapKeepsOrder(t *testing.T) {
	var sifts [2]int
	inPlace := int64(0)
	for seed := uint64(1); seed <= 30; seed++ {
		s, w := checkRandomSchedule(t, seed)
		sifts[0] += s[0]
		sifts[1] += s[1]
		inPlace += w
	}
	if sifts[0] == 0 || sifts[1] == 0 {
		t.Fatalf("cancels sifted the filling entry up %d and down %d times; the property was not exercised", sifts[0], sifts[1])
	}
	if inPlace == 0 {
		t.Fatal("no sleep woke in place; the property was not exercised")
	}
}

// checkQueue fails unless every queued entry's slot records the entry's
// index, no entry is earlier than its parent, and the queue holds
// exactly the events in live.
func checkQueue(t *testing.T, e *Engine, live map[schedKey]bool, seed uint64, when string) {
	t.Helper()
	q := e.events
	for i, x := range q {
		if pos := e.slots[x.ref].pos; int(pos) != i {
			t.Fatalf("seed %d, %s: entry %d's slot records index %d", seed, when, i, pos)
		}
		if i > 0 && x.before(q[(i-1)/2]) {
			t.Fatalf("seed %d, %s: entry %d is earlier than its parent", seed, when, i)
		}
		if !live[schedKey{x.at, x.seq}] {
			t.Fatalf("seed %d, %s: entry %d (%v, seq %d) is not a live event", seed, when, i, x.at, x.seq)
		}
	}
	if len(q) != len(live) {
		t.Fatalf("seed %d, %s: %d queued entries, %d live events", seed, when, len(q), len(live))
	}
}

// checkRandomSchedule runs one seeded schedule against a sorted
// reference list. It returns how many cancels sifted the entry that
// filled the hole up and how many down, and how many sleeps woke in
// place.
func checkRandomSchedule(t *testing.T, seed uint64) ([2]int, int64) {
	t.Helper()
	e := NewEngine()
	r := NewRand(seed)
	var recs []*schedRec
	var fired []*schedRec
	var cur *schedRec // the event firing now; nil before the run
	live := map[schedKey]bool{}
	budget := 2000
	var sifts [2]int

	// add records an event about to be scheduled at d from now.
	add := func(d Duration) *schedRec {
		rec := &schedRec{id: len(recs), at: e.Now().Add(d), seq: e.seq}
		recs = append(recs, rec)
		live[schedKey{rec.at, rec.seq}] = true
		return rec
	}
	var act func()
	fire := func(rec *schedRec) {
		cur = rec
		fired = append(fired, rec)
		delete(live, schedKey{rec.at, rec.seq})
		checkQueue(t, e, live, seed, "fire")
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
			rec := add(d)
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
			if !pending(rec) {
				rec.h.Cancel() // a no-op
				checkQueue(t, e, live, seed, "no-op cancel")
				continue
			}
			rec.cancelled = true
			delete(live, schedKey{rec.at, rec.seq})
			i, last := int(e.slots[rec.h.ref].pos), e.events[len(e.events)-1]
			rec.h.Cancel()
			if last.ref != rec.h.ref {
				switch pos := int(e.slots[last.ref].pos); {
				case pos < i:
					sifts[0]++
				case pos > i:
					sifts[1]++
				}
			}
			checkQueue(t, e, live, seed, "cancel")
		}
	}
	// An idle ticker with work every tick fires like any event.
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for ; ticks < 40; ticks++ {
			rec := add(Duration(r.Intn(300)))
			p.SleepIdle(rec.at.Sub(p.Now()), func() bool { return true })
			fire(rec)
		}
	})
	// A busy sleeper, whose wakeups are taken in place whenever no
	// queued event fires first.
	sleeps := 0
	e.Spawn("sleeper", func(p *Proc) {
		for ; sleeps < 40; sleeps++ {
			rec := add(Duration(r.Intn(100)))
			p.Sleep(rec.at.Sub(p.Now()))
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
	if ticks != 40 || sleeps != 40 || len(e.events) != 0 {
		t.Fatalf("seed %d: %d ticks, %d sleeps and %d entries left; want 40, 40, 0", seed, ticks, sleeps, len(e.events))
	}
	return sifts, e.inPlace
}

// A timer re-armed before it ever fires, as a TCP retransmission timer
// is on every ack, leaves no entry behind: the queue holds only the
// armed timer and the next tick.
func TestEngineRearmedTimerKeepsQueueShallow(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	var rto Event
	n := 0
	var tick func()
	tick = func() {
		rto.Cancel()
		rto = e.After(200*Millisecond, noop)
		want := 1
		if n++; n < 10000 {
			e.After(10*Microsecond, tick)
			want = 2
		}
		if len(e.events) != want {
			t.Fatalf("arm %d: %d queued entries, want %d", n, len(e.events), want)
		}
	}
	e.After(0, tick)
	e.Run()
	if n != 10000 || e.Events() != 10001 {
		t.Fatalf("%d arms and %d events fired, want 10000 and 10001", n, e.Events())
	}
}

package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, ts := range []Time{10, 20, 30, 40} {
		ts := ts
		e.At(ts, func() { fired = append(fired, ts) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	e.RunUntil(Forever)
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run", fired)
	}
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		e.After(-50, func() {}) // must not panic
	})
	e.Run()
}

// Property: for any set of (time, id) pairs, the engine fires them sorted
// by time with ties broken by insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i, at := i, Time(d)
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				return false
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		e.Seed(42)
		var stamps []Time
		var tick func()
		n := 0
		tick = func() {
			stamps = append(stamps, e.Now())
			n++
			if n < 50 {
				e.After(Duration(e.Rand().Intn(1000)+1), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBytesToDuration(t *testing.T) {
	cases := []struct {
		n    int
		bps  int64
		want Duration
	}{
		{0, 1e9, 0},
		{1, 1e9, 8},        // one byte at 1 Gbps = 8 ns
		{1500, 1e9, 12000}, // full frame = 12 us
		{1, 8, Second},     // 8 bits at 8 bps = 1 s
		{-5, 1e9, 0},       // negative clamps
		{100, 0, 0},        // zero rate clamps
		{3, 1e9 * 3, 8},    // rounds up: 24 bits / 3Gbps = 8ns exactly
		{1, 1e9 * 3, 3},    // 8 bits / 3 Gbps = 2.67ns -> 3
	}
	for _, c := range cases {
		if got := BytesToDuration(c.n, c.bps); got != c.want {
			t.Errorf("BytesToDuration(%d, %d) = %v, want %v", c.n, c.bps, got, c.want)
		}
	}
}

// Property: ordering holds even with interleaved cancellations — every
// non-cancelled event fires in (time, insertion) order and no cancelled
// event fires.
func TestEngineCancelOrderProperty(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		if len(delays) > 100 {
			delays = delays[:100]
		}
		e := NewEngine()
		var fired []int
		events := make([]Event, len(delays))
		for i, d := range delays {
			i := i
			events[i] = e.At(Time(d), func() { fired = append(fired, i) })
		}
		cancelled := map[int]bool{}
		for i := range delays {
			if i < len(cancelMask) && cancelMask[i] {
				events[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		seen := map[int]bool{}
		for k := 1; k < len(fired); k++ {
			a, b := fired[k-1], fired[k]
			if delays[a] > delays[b] || (delays[a] == delays[b] && a > b) {
				return false
			}
		}
		for _, id := range fired {
			if cancelled[id] || seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(fired) == len(delays)-len(cancelled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

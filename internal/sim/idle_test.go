package sim

import "testing"

// tickLoop spawns a proc that sleeps on an idle timer every interval
// and appends each tick's time to ticks. work, if non-nil, runs on each
// tick.
func tickLoop(e *Engine, interval Duration, pending func() bool, ticks *[]Time, work func(p *Proc)) *Proc {
	return e.Spawn("ticker", func(p *Proc) {
		for {
			p.SleepIdle(interval, pending)
			*ticks = append(*ticks, p.Now())
			if work != nil {
				work(p)
			}
		}
	})
}

func TestEngineEventsAndSwitchesCount(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.At(6, func() {}).Cancel()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(10)
	})
	e.Run()
	// Fired: the At(5), the spawn's first step and two sleep wakeups;
	// the cancelled event does not count.
	if got := e.Events(); got != 4 {
		t.Fatalf("Events() = %d, want 4", got)
	}
	// Stepped three times: start, and once per sleep.
	if got := e.Switches(); got != 3 {
		t.Fatalf("Switches() = %d, want 3", got)
	}
}

func TestEngineIdleTimersAloneEndTheRun(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tickLoop(e, Millisecond, func() bool { return false }, &ticks, nil)
	end := e.RunUntil(Time(600 * Second))
	if end != 0 || len(ticks) != 0 {
		t.Fatalf("run ended at %v after %d ticks, want 0 and none", end, len(ticks))
	}
	if !e.Idle() || e.LiveProcs() != 1 {
		t.Fatalf("Idle() = %v, LiveProcs() = %d; want true, 1 parked ticker", e.Idle(), e.LiveProcs())
	}
	// The spawn's first step, nothing more.
	if e.Events() != 1 {
		t.Fatalf("Events() = %d, want 1", e.Events())
	}
}

func TestEngineIdleTimerWithPendingWorkFires(t *testing.T) {
	e := NewEngine()
	work := 3 // ticks that still have something to do
	var ticks []Time
	var echoed []Time
	tickLoop(e, 10, func() bool { return work > 0 }, &ticks, func(p *Proc) {
		if work > 0 {
			work--
			// The busy event this schedules outlives the ticks that
			// follow it, and keeps the run going until it fires.
			e.After(25, func() { echoed = append(echoed, e.Now()) })
		}
	})
	end := e.RunUntil(1000)
	if len(echoed) != 3 || echoed[2] != 55 {
		t.Fatalf("echoes at %v, want 3, the last at 55", echoed)
	}
	if end != 55 {
		t.Fatalf("run ended at %v, want 55 (the last busy event)", end)
	}
	// The ticks at 40 and 50 fired without work because the echoes
	// were still queued; the one at 60 never fired.
	if want := []Time{10, 20, 30, 40, 50}; len(ticks) != len(want) || ticks[4] != 50 {
		t.Fatalf("ticks at %v, want %v", ticks, want)
	}
}

func TestEngineIdleAndBusySameInstantKeepSeqOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() { order = append(order, "busy-a") })
	e.Spawn("ticker", func(p *Proc) {
		p.SleepIdle(10, func() bool { return false })
		order = append(order, "idle")
	})
	// Scheduled after the ticker's first step armed its timer.
	e.At(0, func() { e.At(10, func() { order = append(order, "busy-b") }) })
	e.Run()
	if len(order) != 3 || order[0] != "busy-a" || order[1] != "idle" || order[2] != "busy-b" {
		t.Fatalf("order %v, want [busy-a idle busy-b]", order)
	}
}

func TestEngineRunUntilLimitHoldsWithIdleWork(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tickLoop(e, 10, func() bool { return true }, &ticks, nil)
	if end := e.RunUntil(35); end != 30 || len(ticks) != 3 {
		t.Fatalf("RunUntil(35) ended at %v after %d ticks, want 30 and 3", end, len(ticks))
	}
	if e.Idle() {
		t.Fatal("Idle() with a pending idle timer queued")
	}
	// A later run resumes the timers on their original schedule.
	if end := e.RunUntil(55); end != 50 || len(ticks) != 5 {
		t.Fatalf("RunUntil(55) ended at %v after %d ticks, want 50 and 5", end, len(ticks))
	}
}

func TestEngineCancelledBusyEventDoesNotHoldTheRun(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tickLoop(e, 10, func() bool { return false }, &ticks, nil)
	far := e.At(1000, func() { t.Error("cancelled event fired") })
	e.At(15, func() { far.Cancel() })
	if end := e.RunUntil(10000); end != 15 {
		t.Fatalf("run ended at %v, want 15 (the cancel)", end)
	}
	if len(ticks) != 1 {
		t.Fatalf("ticks at %v, want only the one at 10", ticks)
	}
}

func TestEngineRunDiscardsCancelledEvents(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 100; i++ {
		e.At(Time(i), func() { t.Error("cancelled event fired") }).Cancel()
	}
	e.Run()
	if len(e.events) != 0 || e.Now() != 0 {
		t.Fatalf("%d events left, clock %v; want an empty queue at 0", len(e.events), e.Now())
	}
}

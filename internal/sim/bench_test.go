package sim

import (
	"fmt"
	"testing"
)

// Benchmarks for the simulator itself: how fast virtual events execute
// in wall time. These bound how large an experiment the harness can
// afford.

func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	b.ResetTimer()
	e.After(0, tick)
	e.Run()
}

// sleeper returns a proc body that sleeps n times for 10 ns each.
func sleeper(n int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	}
}

// BenchmarkProcContextSwitch measures a sleep that parks: two sleepers
// run half a period apart, so each wakeup finds the other's queued
// before it.
func BenchmarkProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("sleeper", sleeper((b.N+1)/2))
	e.At(5, func() { e.Spawn("sleeper", sleeper(b.N/2)) })
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepInPlace measures a sleep with nothing queued before its
// wakeup, which the engine takes without parking the proc.
func BenchmarkSleepInPlace(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("sleeper", sleeper(b.N))
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSpawn measures one proc lifetime: spawn, first step,
// finish.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine()
	body := func(p *Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", body)
		e.Run()
	}
}

func BenchmarkFIFOHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	q := NewFIFO[int](e, "q", 4)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkTimerCancel schedules b.N timers and cancels each at once.
// A cancelled entry leaves the queue as it is cancelled, so nothing is
// left to drain.
func BenchmarkTimerCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	noop := func() {}
	for i := 0; i < b.N; i++ {
		ev := e.At(Time(i+1), noop)
		ev.Cancel()
	}
}

// BenchmarkTimerRearm re-arms one long timer between short events, as a
// TCP retransmission timer is re-armed on every ack: each arm cancels
// the previous one, which never reaches the head of the queue. The
// live=16 case keeps 16 more events queued after the last tick, a
// little over the web workload's mean live depth at a push (12.6), so
// each arm and cancel sifts through a realistic depth.
func BenchmarkTimerRearm(b *testing.B) {
	for _, live := range []int{0, 16} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			noop := func() {}
			for i := 0; i < live; i++ {
				e.At(Time(3600*Second)+Time(i), noop)
			}
			var timer Event
			var tick func()
			n := 0
			tick = func() {
				timer.Cancel()
				timer = e.After(200*Millisecond, noop)
				if n++; n < b.N {
					e.After(10, tick)
				}
			}
			b.ResetTimer()
			e.After(0, tick)
			e.Run()
		})
	}
}

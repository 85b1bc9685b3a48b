package sim

import "testing"

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

func BenchmarkProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
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

func BenchmarkTimerCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		ev := e.At(Time(i+1), func() {})
		ev.Cancel()
	}
	b.ResetTimer()
	e.Run()
}

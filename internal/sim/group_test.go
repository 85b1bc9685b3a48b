package sim

import "testing"

func TestWaitGroupBlocksUntilZero(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg")
	wg.Add(3)
	var doneAt Time
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.At(Time(i*100), func() { wg.Done() })
	}
	e.Run()
	if doneAt != 300 {
		t.Fatalf("waiter released at %v, want 300", doneAt)
	}
}

func TestWaitGroupZeroPassesImmediately(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg")
	passed := false
	e.Spawn("w", func(p *Proc) {
		wg.Wait(p)
		passed = true
	})
	e.Run()
	if !passed {
		t.Fatal("Wait on an empty group should not block")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg")
	defer func() {
		if recover() == nil {
			t.Fatal("negative count did not panic")
		}
	}()
	wg.Done()
}

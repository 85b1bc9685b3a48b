package emp

import (
	"testing"

	"repro/internal/sim"
)

// TestDMAWokenWaiterChecksAgain pins the DMA engine's semaphore rule. A
// holds the engine until d and B waits for it. C's charge also ends at
// d, and was queued after A's release, so C takes the engine before B's
// wake-up runs. B must check again and wait behind C: A, C and B finish
// at d, 2d and 3d.
func TestDMAWokenWaiterChecksAgain(t *testing.T) {
	b := newBed()
	fw := b.eps[0].fw
	_, d := b.nics[0].DMA(1500)
	done := map[string]sim.Time{}
	start := func(name string, delay sim.Duration) {
		finish := func(a *activity) {
			done[name] = b.eng.Now()
			a.parked = true
		}
		transfer := func(a *activity) { a.dma(1500, finish) }
		a := &activity{fw: fw, parked: true, next: transfer}
		if delay > 0 {
			a.next = func(a *activity) { a.charge(delay, transfer) }
		}
		a.wake()
	}
	start("A", 0)
	start("B", 0)
	start("C", d)
	b.eng.Run()
	want := map[string]sim.Time{"A": sim.Time(d), "C": sim.Time(2 * d), "B": sim.Time(3 * d)}
	for name, at := range want {
		if done[name] != at {
			t.Errorf("%s finished its transfer at %v, want %v (all: %v)", name, done[name], at, done)
		}
	}
}

package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceReserveSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	d1 := r.Reserve(100)
	d2 := r.Reserve(50)
	if d1 != 100 {
		t.Fatalf("first reservation done at %v, want 100", d1)
	}
	if d2 != 150 {
		t.Fatalf("second reservation done at %v, want 150 (queued behind first)", d2)
	}
	if r.busyTime != 150 {
		t.Fatalf("busy=%v, want 150", r.busyTime)
	}
}

func TestResourceIdleGapNotCharged(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Reserve(10)
	e.At(1000, func() {
		done := r.Reserve(10)
		if done != 1010 {
			t.Errorf("reservation after idle gap done at %v, want 1010", done)
		}
	})
	e.Run()
	if r.busyTime != 20 {
		t.Fatalf("busy time %v, want 20 (gap not charged)", r.busyTime)
	}
}

func TestResourceReserveAt(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	done := r.ReserveAt(500, 100)
	if done != 600 {
		t.Fatalf("ReserveAt(500,100) = %v, want 600", done)
	}
	// Next reservation queues behind it even though now == 0.
	if done2 := r.Reserve(10); done2 != 610 {
		t.Fatalf("subsequent Reserve = %v, want 610", done2)
	}
}

// Property: reservations never overlap — each starts no earlier than the
// previous one finished.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		e := NewEngine()
		r := NewResource(e)
		prevDone := Time(0)
		for _, d := range durs {
			done := r.Reserve(Duration(d))
			start := done.Add(-Duration(d))
			if start < prevDone {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandBounds(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of range", f)
		}
		if d := r.Duration(10, 20); d < 10 || d > 20 {
			t.Fatalf("Duration(10,20) = %v out of range", d)
		}
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

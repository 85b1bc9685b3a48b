// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a priority queue of events and
// runs simulated processes as run-to-yield coroutines: exactly one process
// executes at any instant, and control returns to the engine whenever a
// process blocks. Given the same inputs, a simulation produces identical
// event orderings and timestamps on every run, which the benchmark harness
// relies on for reproducible figures.
package sim

import "fmt"

// Time is an absolute instant on the virtual clock, in nanoseconds since
// the start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants at nanosecond base.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a practically-infinite instant; used as a deadline when a wait
// should never time out.
const Forever Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/1e3)
}

// Micros reports d as a floating-point count of microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Seconds reports d as a floating-point count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// String formats the duration with microsecond precision.
func (d Duration) String() string {
	return fmt.Sprintf("%.3fus", float64(d)/1e3)
}

// BytesToDuration returns the time to move n bytes at rate bits/second.
// It rounds up so that a transfer never finishes early.
func BytesToDuration(n int, bitsPerSecond int64) Duration {
	if n <= 0 || bitsPerSecond <= 0 {
		return 0
	}
	bits := int64(n) * 8
	// ceil(bits * 1e9 / bps) without overflow for realistic sizes.
	return Duration((bits*1e9 + bitsPerSecond - 1) / bitsPerSecond)
}

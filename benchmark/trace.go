package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/sim"
)

// maxSimSpans caps the simulated-time call spans one trace file keeps:
// an echo repetition makes tens of thousands of calls, and a viewer
// needs only a window of them.
const maxSimSpans = 30000

// Chrome trace-event process ids: host spans run on the wall clock,
// simulated call spans on the simulated one.
const (
	hostPid = 1
	simPid  = 2
)

// traceEvent is one Chrome trace-event record ("X" complete events and
// "M" metadata). Times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps the benchmark's own spans in memory until the run ends.
// A nil tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	origin time.Time
	rep    int
	// sim enables simulated-time call spans (the profiled repetition).
	sim      bool
	simSpans int
	events   []traceEvent
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), events: []traceEvent{
		{Name: "process_name", Ph: "M", Pid: hostPid, Args: map[string]any{"name": "host (wall clock)"}},
		{Name: "process_name", Ph: "M", Pid: simPid, Args: map[string]any{"name": "simulation (simulated clock)"}},
	}}
}

// hostSpan opens a wall-clock span on the current repetition's track and
// returns the function that closes it.
func (t *tracer) hostSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.events = append(t.events, traceEvent{
			Name: name, Ph: "X", Pid: hostPid, Tid: t.rep,
			Ts:   float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(time.Since(start).Nanoseconds()) / 1e3,
			Args: map[string]any{"rep": t.rep},
		})
	}
}

// simSpan records one call's simulated duration on connection conn's
// track.
func (t *tracer) simSpan(name string, conn int, start, end sim.Time) {
	if t == nil || !t.sim || t.simSpans >= maxSimSpans {
		return
	}
	t.simSpans++
	t.events = append(t.events, traceEvent{
		Name: name, Ph: "X", Pid: simPid, Tid: conn,
		Ts:  float64(start) / 1e3,
		Dur: float64(end.Sub(start)) / 1e3,
	})
}

// write stores the spans as a Chrome trace-event JSON file.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

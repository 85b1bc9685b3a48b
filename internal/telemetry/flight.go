package telemetry

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Flight-recorder limits: how many connections keep a live ring, how
// many events each ring holds, and how many dumps a registry retains.
// All three bound memory on hosts that churn through many connections.
const (
	maxFlights = 64
	flightCap  = 32
	maxDumps   = 16
)

// flightEvent is one protocol event in a connection's flight-recorder
// ring: connection setup and refusal, credit grants and stalls,
// unexpected-queue evictions, retransmission timeouts, shutdown/FIN
// progress, deadline and linger expiry.
type flightEvent struct {
	At     sim.Time `json:"at"`
	Kind   string   `json:"kind"`
	Detail string   `json:"detail,omitempty"`
}

// Recorder is a fixed-size ring of the most recent protocol events on
// one connection. Recording is O(1) and never allocates after the ring
// fills.
type Recorder struct {
	id    string
	ring  []flightEvent
	next  int
	total int64

	// older and newer link the registry's live recorders in recency order.
	older, newer *Recorder
}

// Record appends an event, overwriting the oldest once the ring is
// full.
func (r *Recorder) Record(at sim.Time, kind, detail string) {
	ev := flightEvent{At: at, Kind: kind, Detail: detail}
	if r.ring == nil {
		// A connection's setup and teardown record a few events, so
		// the first holds room for them in one allocation.
		r.ring = make([]flightEvent, 0, 4)
	}
	if len(r.ring) < flightCap {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next%flightCap] = ev
	}
	r.next++
	r.total++
}

// Recordf is Record with a formatted detail string.
func (r *Recorder) Recordf(at sim.Time, kind, format string, args ...any) {
	r.Record(at, kind, fmt.Sprintf(format, args...))
}

// Events returns the ring's events oldest first.
func (r *Recorder) Events() []flightEvent {
	if len(r.ring) < flightCap {
		out := make([]flightEvent, len(r.ring))
		copy(out, r.ring)
		return out
	}
	out := make([]flightEvent, 0, flightCap)
	start := r.next % flightCap
	out = append(out, r.ring[start:]...)
	out = append(out, r.ring[:start]...)
	return out
}

// Total reports how many events were ever recorded (>= len(Events())
// once the ring has wrapped).
func (r *Recorder) Total() int64 {
	return r.total
}

// Dump is a flight-recorder ring captured at the moment something went
// wrong, plus why it was captured.
type Dump struct {
	Conn   string        `json:"conn"`
	Reason string        `json:"reason"`
	Total  int64         `json:"total_events"`
	Events []flightEvent `json:"events"`
}

// Flight returns the flight recorder for the given connection id,
// creating it on first use. At most maxFlights recorders stay live; the
// least recently used is discarded beyond that, so connection churn
// cannot grow the registry.
func (r *Registry) Flight(conn string) *Recorder {
	if rec := r.flights[conn]; rec != nil {
		if rec != r.newest {
			r.unlinkFlight(rec)
			r.pushFlight(rec)
		}
		return rec
	}
	rec := &Recorder{id: conn}
	r.flights[conn] = rec
	r.pushFlight(rec)
	if len(r.flights) > maxFlights {
		evict := r.oldest
		r.unlinkFlight(evict)
		delete(r.flights, evict.id)
	}
	return rec
}

// pushFlight links rec in as the most recently used recorder.
func (r *Registry) pushFlight(rec *Recorder) {
	rec.older = r.newest
	if r.newest != nil {
		r.newest.newer = rec
	} else {
		r.oldest = rec
	}
	r.newest = rec
}

// unlinkFlight takes rec out of the recency list.
func (r *Registry) unlinkFlight(rec *Recorder) {
	if rec.older != nil {
		rec.older.newer = rec.newer
	} else {
		r.oldest = rec.newer
	}
	if rec.newer != nil {
		rec.newer.older = rec.older
	} else {
		r.newest = rec.older
	}
	rec.older, rec.newer = nil, nil
}

// FlightIDs lists the live recorder ids, sorted.
func (r *Registry) FlightIDs() []string {
	ids := make([]string, 0, len(r.flights))
	for id := range r.flights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DumpFlight captures the named connection's ring as a failure
// artifact. The registry retains at most maxDumps dumps (oldest kept —
// the first failure is usually the root cause). Returns the dump, or
// nil if the connection has no recorder or an empty one.
func (r *Registry) DumpFlight(conn, reason string) *Dump {
	rec := r.flights[conn]
	if rec == nil || rec.total == 0 {
		return nil
	}
	d := &Dump{Conn: conn, Reason: reason, Total: rec.total, Events: rec.Events()}
	if len(r.dumps) < maxDumps {
		r.dumps = append(r.dumps, *d)
	}
	return d
}

// DumpAllFlights captures every live ring (leak-audit findings often
// cannot name a single connection). Dumps beyond the registry cap are
// dropped.
func (r *Registry) DumpAllFlights(reason string) {
	for _, id := range r.FlightIDs() {
		r.DumpFlight(id, reason)
	}
}

// Dumps returns the retained failure artifacts, in capture order.
func (r *Registry) Dumps() []Dump {
	out := make([]Dump, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// FprintDump renders one dump as an indented, human-readable event
// history.
func FprintDump(w io.Writer, d Dump) {
	fmt.Fprintf(w, "flight %s (%s, %d events", d.Conn, d.Reason, d.Total)
	if int(d.Total) > len(d.Events) {
		fmt.Fprintf(w, ", oldest %d lost", d.Total-int64(len(d.Events)))
	}
	fmt.Fprintf(w, "):\n")
	for _, ev := range d.Events {
		fmt.Fprintf(w, "  %12s  %-14s %s\n", ev.At, ev.Kind, ev.Detail)
	}
}

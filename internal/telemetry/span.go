package telemetry

import "repro/internal/sim"

// Span is one operation's latency decomposition: an ordered list of
// named virtual-time marks stamped as the operation crosses layers
// (write enqueue, EMP fragment post, first frame on the wire,
// tag match, completion delivery, receive staging, read wake). Spans
// ride the message payload end to end — the substrate carries one on
// its wire header, TCP on segment object boundaries — so the receiver
// can account the whole path without any extra wire state.
//
// Marks never charge simulated time, so marking changes no timing.
// Spans are handled by pointer only: Marks starts as a view of the
// inline marks array, and a copy's Marks would alias the original's.
type Span struct {
	Path  string // "eager", "rend", or "tcp"
	Size  int    // operation payload bytes, for size classing
	Marks []SpanMark
	marks [spanMarks]SpanMark
}

// SpanMark is one named instant inside a span.
type SpanMark struct {
	Name string
	At   sim.Time
}

// Spanned is implemented by payload objects that carry a latency span,
// letting lower layers (EMP firmware, TCP segments) stamp marks by type
// assertion without importing the layer that created the span.
type Spanned interface {
	TelemetrySpan() *Span
}

// spanMarks is the most marks a path stamps: the eager path's write,
// post, wire, match, uq, deliver, stage and read. A Span holds room for
// all of them inline, so a span is one allocation and marking never
// regrows the slice.
const spanMarks = 8

// NewSpan starts a span on the given path with an initial mark.
func (r *Registry) NewSpan(path string, size int, mark string, at sim.Time) *Span {
	s := &Span{Path: path, Size: size}
	s.Marks = s.marks[:0]
	s.Mark(mark, at)
	return s
}

// Mark appends a named instant.
func (s *Span) Mark(name string, at sim.Time) {
	s.Marks = append(s.Marks, SpanMark{Name: name, At: at})
}

// MarkOnce appends the mark only if no mark with that name exists yet;
// retransmission paths use it so a span records first-transmission
// instants. It is safe on a nil span: EMP marks every message through
// Spanned, and control messages carry none.
func (s *Span) MarkOnce(name string, at sim.Time) {
	if s == nil {
		return
	}
	for _, m := range s.Marks {
		if m.Name == name {
			return
		}
	}
	s.Marks = append(s.Marks, SpanMark{Name: name, At: at})
}

// SizeClass buckets a payload size the way the paper's figures do:
// small control-sized ops, a page-ish midrange, and bulk.
func SizeClass(n int) string {
	switch {
	case n <= 64:
		return "64B"
	case n <= 1024:
		return "1KB"
	case n <= 16<<10:
		return "16KB"
	default:
		return "big"
	}
}

// RecordSpan folds a completed span into the registry's latency
// histograms: one histogram per adjacent mark pair (the stage
// decomposition) and one for the end-to-end first-to-last duration,
// keyed by path and size class. Because stages telescope — each stage's
// end is the next stage's start — the per-stage sums add up to the
// end-to-end sum exactly. A span with fewer than two marks records
// nothing.
func (r *Registry) RecordSpan(s *Span) {
	if len(s.Marks) < 2 {
		return
	}
	k := spanKey{path: s.Path, class: SizeClass(s.Size)}
	for i := 1; i < len(s.Marks); i++ {
		k.from, k.to = s.Marks[i-1].Name, s.Marks[i].Name
		r.spanHist(k).ObserveDuration(s.Marks[i].At.Sub(s.Marks[i-1].At))
	}
	k.from, k.to = "", "e2e"
	r.spanHist(k).ObserveDuration(s.Marks[len(s.Marks)-1].At.Sub(s.Marks[0].At))
}

// spanKey names a latency histogram RecordSpan feeds: the stage between
// two adjacent marks, or, with from empty, the end-to-end duration.
type spanKey struct{ path, class, from, to string }

// spanHist returns k's histogram, registering it under its "latency"
// name on first use; later spans find it without building the name.
func (r *Registry) spanHist(k spanKey) *Histogram {
	h := r.spanHists[k]
	if h == nil {
		name := k.path + "/" + k.class + "/" + k.to
		if k.from != "" {
			name = k.path + "/" + k.class + "/" + k.from + "->" + k.to
		}
		h = r.Histogram("latency", name, LatencyBounds())
		if r.spanHists == nil {
			r.spanHists = make(map[spanKey]*Histogram)
		}
		r.spanHists[k] = h
	}
	return h
}

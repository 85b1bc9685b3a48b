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
	Marks []spanMark
	marks [spanMarks]spanMark
}

// spanMark is one named instant inside a span.
type spanMark struct {
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
	s.Marks = append(s.Marks, spanMark{Name: name, At: at})
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
	s.Marks = append(s.Marks, spanMark{Name: name, At: at})
}

// sizeClass buckets a payload size the way the paper's figures do:
// small control-sized ops, a page-ish midrange, and bulk.
func sizeClass(n int) string {
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
	n := len(s.Marks)
	if n < 2 {
		return
	}
	rt := r.spanRoute(s.Path, sizeClass(s.Size))
	if !rt.follows(s.Marks) {
		r.reroute(rt, s.Marks)
	}
	for i := 1; i < n; i++ {
		rt.hists[i-1].ObserveDuration(s.Marks[i].At.Sub(s.Marks[i-1].At))
	}
	rt.hists[n-1].ObserveDuration(s.Marks[n-1].At.Sub(s.Marks[0].At))
}

// spanRoute is RecordSpan's cache for one path and size class: the mark
// names of the last span recorded there, and the histograms that span
// fed, one per stage and then the end-to-end one. A span with the same
// names feeds the same histograms without looking any up; spans of one
// path and size mostly carry the same marks.
type spanRoute struct {
	path, class string
	names       []string
	hists       []*Histogram
}

// spanRoute returns the route cached for path and class, adding an
// empty one on first use. A registry sees a handful of them, so a scan
// costs less than hashing the two strings.
func (r *Registry) spanRoute(path, class string) *spanRoute {
	for i := range r.spanRoutes {
		if rt := &r.spanRoutes[i]; rt.path == path && rt.class == class {
			return rt
		}
	}
	r.spanRoutes = append(r.spanRoutes, spanRoute{path: path, class: class})
	return &r.spanRoutes[len(r.spanRoutes)-1]
}

// follows reports whether marks carry the names rt was filled from.
func (rt *spanRoute) follows(marks []spanMark) bool {
	if len(marks) != len(rt.names) {
		return false
	}
	for i, m := range marks {
		if m.Name != rt.names[i] {
			return false
		}
	}
	return true
}

// reroute refills rt from marks through spanHist, which registers any
// histogram not yet seen, stage by stage and then the end-to-end one.
func (r *Registry) reroute(rt *spanRoute, marks []spanMark) {
	rt.names, rt.hists = rt.names[:0], rt.hists[:0]
	k := spanKey{path: rt.path, class: rt.class}
	for i, m := range marks {
		rt.names = append(rt.names, m.Name)
		if i > 0 {
			k.from, k.to = marks[i-1].Name, m.Name
			rt.hists = append(rt.hists, r.spanHist(k))
		}
	}
	k.from, k.to = "", "e2e"
	rt.hists = append(rt.hists, r.spanHist(k))
}

// spanKey names a latency histogram RecordSpan feeds: the stage between
// two adjacent marks, or, with from empty, the end-to-end duration.
type spanKey struct{ path, class, from, to string }

// spanHist returns k's histogram, registering it under its "latency"
// name on first use; later lookups find it without building the name.
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

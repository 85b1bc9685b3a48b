package sim

import (
	"fmt"
	"io"
)

// tracer records timestamped model events for debugging and for the
// deterministic-replay tests. Tracing is off unless a sink is attached,
// so models can trace liberally at no cost in benchmark runs.
type tracer struct {
	eng  *Engine
	sink io.Writer
	n    int
}

// SetTrace attaches a trace sink to the engine; nil disables tracing.
func (e *Engine) SetTrace(w io.Writer) {
	if w == nil {
		e.trace = nil
		return
	}
	e.trace = &tracer{eng: e, sink: w}
}

// Tracing reports whether a trace sink is attached. A hot path guards
// its Tracef calls with it, since boxing their arguments allocates even
// when nothing is traced.
func (e *Engine) Tracing() bool { return e.trace != nil }

// Tracef records a formatted trace line if tracing is enabled.
func (e *Engine) Tracef(component, format string, args ...any) {
	if e.trace == nil {
		return
	}
	e.trace.n++
	fmt.Fprintf(e.trace.sink, "%12.3f  %-12s %s\n",
		float64(e.now)/1e3, component, fmt.Sprintf(format, args...))
}

// TraceCount reports how many trace lines were emitted.
func (e *Engine) TraceCount() int {
	if e.trace == nil {
		return 0
	}
	return e.trace.n
}

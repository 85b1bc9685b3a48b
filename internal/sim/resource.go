package sim

// Resource models a serially-reusable facility (a DMA engine, a switch
// output port, a memory bus) in event-driven style: callers reserve a span
// of service time and learn when their use completes. No process is
// required; the resource simply tracks when it next becomes free.
type Resource struct {
	eng      *Engine
	freeAt   Time
	busyTime Duration // accumulated service time, for utilization stats
}

// NewResource returns an idle resource.
func NewResource(e *Engine) *Resource { return &Resource{eng: e} }

// Reserve books d of service time starting no earlier than now and no
// earlier than the previous reservation's completion. It returns the
// completion instant. Use this for facilities that queue work back to
// back while the caller continues immediately (e.g. handing a frame to
// a busy output port).
func (r *Resource) Reserve(d Duration) (done Time) {
	start := r.eng.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	done = start.Add(d)
	r.freeAt = done
	r.busyTime += d
	return done
}

// ReserveAt is Reserve but with an explicit earliest start time, for
// callers scheduling ahead of the current instant.
func (r *Resource) ReserveAt(earliest Time, d Duration) (done Time) {
	start := earliest
	if r.eng.Now() > start {
		start = r.eng.Now()
	}
	if r.freeAt > start {
		start = r.freeAt
	}
	done = start.Add(d)
	r.freeAt = done
	r.busyTime += d
	return done
}

// FreeAt reports when the resource next becomes free.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Utilization reports busy time as a fraction of elapsed time.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.eng.Now())
}

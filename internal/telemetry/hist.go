package telemetry

import "repro/internal/sim"

// Histogram is a fixed-bucket histogram with bounded memory: it holds
// one int64 per bucket regardless of how many values it absorbs, so it
// is safe on long-running paths. Buckets are defined by ascending upper
// bounds; one implicit overflow bucket catches values above the last
// bound. Exact Sum/Min/Max are tracked alongside so means are exact and
// interpolated percentiles can be clamped to the observed range.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds. An empty bounds slice yields a single overflow bucket
// (still a valid bounded accumulator).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// LatencyBounds returns the default latency bucket bounds in
// nanoseconds: doubling from 500ns to ~33ms. Seventeen buckets plus
// overflow spans everything from a cache-warm eager send to a
// retransmission-timeout stall.
func LatencyBounds() []float64 {
	bounds := make([]float64, 0, 17)
	for b := 500.0; b <= 33e6; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Observe adds one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// ObserveDuration adds one virtual-time duration, in nanoseconds.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(float64(d)) }

// Count reports the number of observations. Zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the exact sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean reports the exact mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	b := make([]float64, len(h.bounds))
	copy(b, h.bounds)
	return b
}

// Counts returns a copy of the per-bucket counts (overflow last).
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	c := make([]int64, len(h.counts))
	copy(c, h.counts)
	return c
}

// Percentile estimates the p-th percentile (0 < p <= 100) by linear
// interpolation within the containing bucket, clamped to the observed
// [Min, Max] range so a single observation reports itself exactly.
// Returns 0 when empty.
func (h *Histogram) Percentile(p float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	target := p / 100 * float64(h.count)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < target {
			continue
		}
		lo := h.min
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		frac := (target - float64(prev)) / float64(n)
		v := lo + frac*(hi-lo)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// Merge folds other into h bucket-wise. Histograms with different
// bounds cannot be merged; Merge reports whether the merge happened.
// Safe when either side is nil (reports false).
func (h *Histogram) Merge(other *Histogram) bool {
	if h == nil || other == nil {
		return false
	}
	if len(h.bounds) != len(other.bounds) {
		return false
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return false
		}
	}
	if other.count == 0 {
		return true
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	return true
}

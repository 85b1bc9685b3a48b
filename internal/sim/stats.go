package sim

// Counter is a monotonically-increasing event count. A layer publishes
// its counters by tagging the fields `metric:"name"` (see
// telemetry.Fields); increments stay plain field adds.
type Counter struct {
	Value int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Value++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.Value += n }

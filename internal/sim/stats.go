package sim

// Counter is a named monotonically-increasing event counter.
type Counter struct {
	Name  string
	Value int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Value++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.Value += n }

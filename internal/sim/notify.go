package sim

// Notifiable is anything that can be poked when simulation state changes.
// EMP handles take one so a completion can wake whatever the owning
// socket parks its callers on; a broadcast Cond satisfies it.
type Notifiable interface {
	Notify()
}

// Notify makes *Cond a Notifiable: a notification is a broadcast.
func (c *Cond) Notify() { c.Broadcast() }

package apps

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// One request-serving path. Every blocking server here is the same
// fork-per-connection accept loop around an app handler: the paper's
// forked web server and the kvstore serve a fixed connection count and
// return, and the crash-restart bootstraps run the same loop unbounded.
// The worker pool (workers.go) frames requests its own way but answers
// them through the same per-app respond function.

// forkServe accepts connections on l and serves each in its own
// "<label>-handler" process, so one client's keep-alive connection does
// not head-of-line-block the others; a handler's connection closes when
// handle returns. With conns > 0 it accepts exactly conns connections,
// waits for every handler to finish and returns; with conns == 0 it
// runs as a Cluster.SetBoot bootstrap and accepts until the listener
// dies with its host, leaving the handlers to finish on their own.
// The listener is closed on return.
func forkServe(p *sim.Proc, l sock.Listener, conns int, label string, handle func(hp *sim.Proc, c sock.Conn)) error {
	defer l.Close(p)
	handlers := sim.NewWaitGroup(p.Engine(), label+".handlers")
	for i := 0; conns == 0 || i < conns; i++ {
		c, err := l.Accept(p)
		if err != nil {
			if conns == 0 {
				return nil // the next incarnation re-listens
			}
			return err
		}
		// TCP_NODELAY, so partial response segments are not held
		// hostage by the Nagle/delayed-ack interaction.
		setNoDelay(c)
		handlers.Add(1)
		p.Engine().Spawn(label+"-handler", func(hp *sim.Proc) {
			defer handlers.Done()
			defer c.Close(hp)
			handle(hp, c)
		})
	}
	handlers.Wait(p)
	return nil
}

// respond sends one response through write. On a session connection
// the response is corked, so the session's resume state commits to the
// node's durable store before any byte the client could acknowledge
// reaches the wire, and a crash–restart can never strand a client
// beyond the committed window. A plain transport connection just
// writes.
func respond(p *sim.Proc, c sock.Conn, write func() error) error {
	s, ok := c.(*sock.Session)
	if !ok {
		return write()
	}
	s.Cork()
	err := write()
	if cerr := s.Uncork(p); err == nil {
		err = cerr
	}
	return err
}

// spawnServer starts serve as node idx's server process. A boot server
// is also registered with Cluster.SetBoot, so every incarnation of a
// restarted host runs it afresh, and its error counts only while the
// host is up: a listen or dial failing because the host died again
// mid-boot is the next incarnation's business.
func spawnServer(c *cluster.Cluster, idx int, name string, boot bool, errOut *error, serve func(p *sim.Proc) error) {
	run := func(p *sim.Proc) {
		if err := serve(p); err != nil && *errOut == nil && !(boot && c.Nodes[idx].Down()) {
			*errOut = err
		}
	}
	if boot {
		c.SetBoot(idx, run)
	}
	c.Eng.Spawn(name, run)
}

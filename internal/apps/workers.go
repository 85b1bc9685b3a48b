// Worker-pool servers: N event-loop workers sharing one poller.
//
// The default servers fork a blocked process per client. The pool is
// the event-loop shape instead (one worker is a single-process event
// loop): K worker processes, each pinned to a host core, all blocked in
// PollWaiter.Wait on one shared poller. The poller delivers each readiness event to exactly
// one worker (no thundering herd), the claimed connection stays masked
// until the worker calls Done (so two workers never interleave reads on
// one connection), and per-request ServiceTime is charged through the
// host's core scheduler — which is what makes throughput scale with
// cores until the cores run out.
package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// workerPool is the shared harness: listener acceptance, worker
// lifecycle, and termination for both app servers. The app supplies
// newConn (fresh per-connection state for an accepted conn) and drain
// (serve the claimed connection until it would block; report false once
// the connection is finished and deregistered).
type workerPool struct {
	node    *cluster.Node
	po      *sock.Poller
	l       sock.Listener
	lp      sock.Pollable
	total   int
	workers int

	newConn func(c sock.Conn) any
	drain   func(wp *sim.Proc, worker int, st any) (open bool)

	accepted int
	finished int
	live     int
	loopErr  error
	done     *sim.Cond
}

// run spawns the workers, waits for every connection to finish (or an
// accept error), releases the pool, and closes the listener.
func (w *workerPool) run(p *sim.Proc, label string) error {
	defer w.po.Close()
	w.done = sim.NewCond(p.Engine(), label+".done")
	w.po.Register(w.lp, sock.PollIn|sock.PollErr, nil)
	for i := 0; i < w.workers; i++ {
		i := i
		waiter := w.po.Waiter(fmt.Sprintf("w%d", i))
		served := w.node.Tel.Counter("apps", fmt.Sprintf("%s_worker%d_events", label, i))
		w.live++
		p.Engine().Spawn(fmt.Sprintf("%s-worker%d", label, i), func(wp *sim.Proc) {
			defer func() {
				w.live--
				w.done.Broadcast()
			}()
			w.work(wp, i, waiter, served)
		})
	}
	w.done.WaitFor(p, func() bool { return w.finished >= w.total || w.loopErr != nil })
	w.po.Close() // unblock parked workers
	w.done.WaitFor(p, func() bool { return w.live == 0 })
	w.l.Close(p)
	return w.loopErr
}

// work is one worker's loop: claim an event, serve it, release it.
func (w *workerPool) work(wp *sim.Proc, worker int, waiter *sock.PollWaiter, served *sim.Counter) {
	for w.finished < w.total && w.loopErr == nil {
		ev, ok := waiter.Wait(wp, -1)
		if !ok {
			return // poller closed: the pool is shutting down
		}
		served.Inc()
		if ev.Data == nil {
			w.accept(wp)
			continue
		}
		if w.drain(wp, worker, ev.Data) {
			w.po.Done(ev.Item)
		}
		if w.finished >= w.total {
			w.done.Broadcast()
		}
	}
}

// accept drains the listener: any worker may claim accept-readiness,
// and new connections register back onto the shared poller.
func (w *workerPool) accept(wp *sim.Proc) {
	for w.accepted < w.total && w.lp.PollState()&sock.PollIn != 0 {
		c, err := w.l.Accept(wp)
		if err != nil {
			w.loopErr = err
			w.done.Broadcast()
			return
		}
		setNoDelay(c)
		w.accepted++
		w.po.Register(c.(sock.Pollable), sock.PollIn|sock.PollErr, w.newConn(c))
	}
	if w.accepted == w.total {
		w.po.Deregister(w.lp)
	} else {
		w.po.Done(w.lp)
	}
}

// closeConn retires one connection from the pool.
func (w *workerPool) closeConn(wp *sim.Proc, c sock.Conn) {
	w.po.Deregister(c.(sock.Pollable))
	c.Close(wp)
	w.finished++
}

// newWorkerPool builds the pool around a freshly-bound listener.
func newWorkerPool(p *sim.Proc, node *cluster.Node, label string, port, workers, total int) (*workerPool, error) {
	l, err := node.Net.Listen(p, port, total)
	if err != nil {
		return nil, err
	}
	lp, ok := l.(sock.Pollable)
	if !ok {
		l.Close(p)
		return nil, fmt.Errorf("%s: listener %T is not pollable", label, l)
	}
	po := sock.NewPoller(p.Engine(), label+".pool")
	node.Tel.ReplaceSource("poller", po.TelemetryStats)
	return &workerPool{node: node, po: po, l: l, lp: lp, total: total, workers: workers}, nil
}

// webConnState is one connection's progress through its keep-alive
// request sequence.
type webConnState struct {
	c      sock.Conn
	need   int // request bytes still unread for the in-flight request
	served int // responses already sent on this connection
}

// webServerWorkers is the worker-pool web server: cfg.Workers workers
// over one shared poller, worker i pinned to core i%Cores, charging
// cfg.ServiceTime of core-scheduled compute per request.
func webServerWorkers(p *sim.Proc, node *cluster.Node, cfg WebConfig, totalConns int) error {
	pool, err := newWorkerPool(p, node, "web", cfg.Port, cfg.Workers, totalConns)
	if err != nil {
		return err
	}
	pool.newConn = func(c sock.Conn) any { return &webConnState{c: c, need: webRequestBytes} }
	pool.drain = func(wp *sim.Proc, worker int, data any) bool {
		st := data.(*webConnState)
		for {
			pc := st.c.(sock.Pollable)
			if pc.PollState()&(sock.PollIn|sock.PollErr) == 0 {
				return true // would block; Done re-arms
			}
			n, _, err := st.c.Read(wp, st.need)
			if err != nil || n == 0 {
				pool.closeConn(wp, st.c)
				return false
			}
			st.need -= n
			if st.need > 0 {
				continue
			}
			if cfg.ServiceTime > 0 {
				node.Host.ChargeComputeOn(wp, worker, cfg.ServiceTime)
			}
			if webRespond(wp, cfg, st.c) != nil {
				pool.closeConn(wp, st.c)
				return false
			}
			st.served++
			if st.served == cfg.RequestsPerConn {
				pool.closeConn(wp, st.c)
				return false
			}
			st.need = webRequestBytes
		}
	}
	return pool.run(p, "web")
}

// kvConnState is one connection's framing state machine: phase 0
// accumulates the request header (whose final byte carries the
// kvRequest object), phase 1 accumulates the body. Requests may arrive
// split across segments, so the workers cannot use the blocking
// ReadFull of the per-connection handlers.
type kvConnState struct {
	c         sock.Conn
	phase     int // 0 = header, 1 = body
	remaining int
	req       *kvRequest
}

// kvServerWorkers is the worker-pool kvstore server: the kvConnState
// header/body state machine with per-operation core-scheduled
// ServiceTime.
func kvServerWorkers(p *sim.Proc, node *cluster.Node, cfg KVConfig, totalConns int) error {
	pool, err := newWorkerPool(p, node, "kv", cfg.Port, cfg.Workers, totalConns)
	if err != nil {
		return err
	}
	table := newKVTable(cfg)
	pool.newConn = func(c sock.Conn) any { return &kvConnState{c: c, remaining: kvHeaderBytes} }
	pool.drain = func(wp *sim.Proc, worker int, data any) bool {
		st := data.(*kvConnState)
		for {
			pc := st.c.(sock.Pollable)
			if pc.PollState()&(sock.PollIn|sock.PollErr) == 0 {
				return true
			}
			n, objs, err := st.c.Read(wp, st.remaining)
			if err != nil || n == 0 {
				pool.closeConn(wp, st.c)
				return false
			}
			st.remaining -= n
			if st.phase == 0 {
				for _, o := range objs {
					if r, ok := o.(*kvRequest); ok {
						st.req = r
					}
				}
			}
			if st.remaining > 0 {
				continue
			}
			if st.phase == 0 {
				if st.req == nil {
					pool.closeConn(wp, st.c) // malformed framing
					return false
				}
				if body := st.req.bodyLen(); body > 0 {
					st.phase, st.remaining = 1, body
					continue
				}
			}
			if cfg.ServiceTime > 0 {
				node.Host.ChargeComputeOn(wp, worker, cfg.ServiceTime)
			}
			if kvRespond(wp, table, st.c, st.req) != nil {
				pool.closeConn(wp, st.c)
				return false
			}
			st.phase, st.remaining, st.req = 0, kvHeaderBytes, nil
		}
	}
	return pool.run(p, "kv")
}

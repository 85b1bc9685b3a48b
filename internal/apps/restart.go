package apps

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Crash–restart server harness. The classic workload servers accept a
// fixed connection count and return when the last handler finishes —
// fine while hosts are immortal, useless once the fault plan reboots
// the server mid-run. The bootstraps here are installed with
// Cluster.SetBoot, so a reborn incarnation re-listens at the same
// address, adopts committed sessions from the node's resume store, and
// keeps serving: the accept loop is infinite (the run ends at the
// engine's time limit) and every response is bracketed in Cork/Uncork
// so resume state commits before any byte a client could acknowledge
// reaches the wire.

// restartPlanned reports whether the cluster's fault plan schedules
// whole-host crash–restart cycles, which is what forces the rebooting
// server harness.
func restartPlanned(c *cluster.Cluster) bool {
	return c.Cfg.Faults.HasRestarts()
}

// beginResponse suspends flushing on a session connection so the
// response about to be written commits before it hits the wire. No-op
// on plain transport connections.
func beginResponse(c sock.Conn) {
	if s, ok := c.(*sock.Session); ok {
		s.Cork()
	}
}

// commitResponse commits the session's resume state and flushes the
// corked response. No-op on plain transport connections.
func commitResponse(p *sim.Proc, c sock.Conn) error {
	if s, ok := c.(*sock.Session); ok {
		return s.Uncork(p)
	}
	return nil
}

// procMutex serializes simulated processes over a shared resource (the
// primary's single replication session) the way a kernel mutex would.
type procMutex struct {
	cond *sim.Cond
	held bool
}

func newProcMutex(eng *sim.Engine, name string) *procMutex {
	return &procMutex{cond: sim.NewCond(eng, name)}
}

func (m *procMutex) lock(p *sim.Proc) {
	m.cond.WaitFor(p, func() bool { return !m.held })
	m.held = true
}

func (m *procMutex) unlock() {
	m.held = false
	m.cond.Broadcast()
}

// webBoot is the crash-surviving web server bootstrap. Each incarnation
// listens on the workload port and serves every accepted session until
// it drains; a listen failure means the host died again mid-boot, which
// the next incarnation handles. Completion is measured client-side (the
// exact request count), so the boot never "finishes".
func webBoot(c *cluster.Cluster, cfg WebConfig, errOut *error) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		node := c.Nodes[0]
		l, err := sessionListen(c, 0, "web")(p, cfg.Port, 16)
		if err != nil {
			if *errOut == nil && !node.Down() {
				*errOut = err
			}
			return
		}
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return // listener died with the host
			}

			p.Engine().Spawn("web-handler", func(hp *sim.Proc) {
				defer conn.Close(hp)
				for {
					n, _, err := sock.ReadFull(hp, conn, webRequestBytes)
					if err != nil || n < webRequestBytes {
						return // client closed, or the session detached
					}
					beginResponse(conn)
					_, werr := conn.Write(hp, cfg.ResponseBytes, "response")
					if cerr := commitResponse(hp, conn); werr == nil {
						werr = cerr
					}
					if werr != nil {
						return
					}
				}
			})
		}
	}
}

// kvBackupBoot runs the kvstore's backup replica on node idx: it
// applies replicated SETs and streams its whole table to a recovering
// primary on kvSyncReq. The table lives in the boot closure, so a
// backup reboot starts empty — safe under the single-failure model,
// where the primary's copy is intact whenever the backup is reborn.
func kvBackupBoot(c *cluster.Cluster, cfg KVConfig, idx int, errOut *error) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		node := c.Nodes[idx]
		store := make(map[string]*kvResponse, cfg.Keys)
		l, err := sessionListen(c, idx, "kv-bak")(p, cfg.Port, 4)
		if err != nil {
			if *errOut == nil && !node.Down() {
				*errOut = err
			}
			return
		}
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}

			p.Engine().Spawn("kv-bak-handler", func(hp *sim.Proc) {
				defer conn.Close(hp)
				for {
					req, err := kvRecvRequest(hp, conn)
					if err != nil {
						return
					}
					switch req.Op {
					case kvSet:
						resp := kvApply(store, req)
						beginResponse(conn)
						werr := kvSendResponse(hp, conn, resp)
						if cerr := commitResponse(hp, conn); werr == nil {
							werr = cerr
						}
						if werr != nil {
							return
						}
					case kvSyncReq:
						beginResponse(conn)
						werr := kvSendTable(hp, conn, store)
						if cerr := commitResponse(hp, conn); werr == nil {
							werr = cerr
						}
						if werr != nil {
							return
						}
					default:
						return
					}
				}
			})
		}
	}
}

// kvPrimaryBoot runs the kvstore primary on node 0. With a backup
// (backupIdx >= 0) each incarnation first recovers its table from the
// replica over a session, then listens; every SET is synchronously
// replicated before the response commits, so no acknowledged write can
// be lost to a primary crash.
func kvPrimaryBoot(c *cluster.Cluster, cfg KVConfig, backupIdx int, errOut *error) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		node := c.Nodes[0]
		store := make(map[string]*kvResponse, cfg.Keys)
		var repl sock.Conn
		var replMu *procMutex
		if backupIdx >= 0 {
			conn, err := sessionDial(c, 0, backupIdx, cfg.Port, "kv-repl")(p)
			if err != nil {
				if *errOut == nil && !node.Down() {
					*errOut = fmt.Errorf("kv: replica dial: %w", err)
				}
				return
			}
			if err := kvRecover(p, conn, store); err != nil {
				if *errOut == nil && !node.Down() {
					*errOut = fmt.Errorf("kv: replica sync: %w", err)
				}
				return
			}
			repl, replMu = conn, newProcMutex(c.Eng, "kv.repl")
		}
		l, err := sessionListen(c, 0, "kv")(p, cfg.Port, cfg.Clients)
		if err != nil {
			if *errOut == nil && !node.Down() {
				*errOut = err
			}
			return
		}
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}

			p.Engine().Spawn("kv-handler", func(hp *sim.Proc) {
				defer conn.Close(hp)
				for {
					req, err := kvRecvRequest(hp, conn)
					if err != nil {
						return
					}
					if req.Op != kvGet && req.Op != kvSet {
						return
					}
					resp := kvApply(store, req)
					if req.Op == kvSet && repl != nil {
						// Synchronous replication: the backup's ack must
						// land before this response commits, or the write
						// is not acknowledged at all.
						if err := kvReplicate(hp, repl, replMu, req); err != nil {
							return
						}
					}
					beginResponse(conn)
					werr := kvSendResponse(hp, conn, resp)
					if cerr := commitResponse(hp, conn); werr == nil {
						werr = cerr
					}
					if werr != nil {
						return
					}
				}
			})
		}
	}
}

// kvSendTable streams the replica's whole table: a bare summary header
// whose ValLen carries the entry count (no body), then each entry as a
// kvSyncEnt-framed request. Keys are sorted so the stream — and with it
// the whole run — is deterministic.
func kvSendTable(p *sim.Proc, c sock.Conn, store map[string]*kvResponse) error {
	keys := make([]string, 0, len(store))
	for k := range store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := c.Write(p, kvHeaderBytes, &kvResponse{OK: true, ValLen: len(keys)}); err != nil {
		return err
	}
	for _, k := range keys {
		e := store[k]
		ent := &kvRequest{Op: kvSyncEnt, Key: k, ValLen: e.ValLen, Val: e.Val}
		if err := kvSendRequest(p, c, ent); err != nil {
			return err
		}
	}
	return nil
}

// kvRecover pulls the replica's full table into store — the reborn
// primary's first act, before it accepts a single client.
func kvRecover(p *sim.Proc, repl sock.Conn, store map[string]*kvResponse) error {
	if err := kvSendRequest(p, repl, &kvRequest{Op: kvSyncReq}); err != nil {
		return err
	}
	_, objs, err := sock.ReadFull(p, repl, kvHeaderBytes)
	if err != nil {
		return err
	}
	sum := findKVResponse(objs)
	if sum == nil || !sum.OK {
		return fmt.Errorf("kv: replica refused sync")
	}
	for i := 0; i < sum.ValLen; i++ {
		ent, err := kvRecvRequest(p, repl)
		if err != nil {
			return err
		}
		if ent.Op != kvSyncEnt {
			return fmt.Errorf("kv: unexpected op %d in sync stream", ent.Op)
		}
		store[ent.Key] = &kvResponse{OK: true, ValLen: ent.ValLen, Val: ent.Val}
	}
	return nil
}

// kvReplicate forwards one SET to the backup and waits for its ack.
// The single replication session is shared by every handler process,
// so request/ack exchanges are serialized under the mutex.
func kvReplicate(p *sim.Proc, repl sock.Conn, mu *procMutex, req *kvRequest) error {
	mu.lock(p)
	defer mu.unlock()
	fwd := &kvRequest{Op: kvSet, Key: req.Key, ValLen: req.ValLen, Val: req.Val}
	if err := kvSendRequest(p, repl, fwd); err != nil {
		return err
	}
	ack, err := kvRecvResponse(p, repl)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("kv: replica rejected set")
	}
	return nil
}

package apps

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// Crash–restart server harness. The workload servers accept a fixed
// connection count and return when the last handler finishes — fine
// while hosts are immortal, useless once the fault plan reboots the
// server mid-run. Under such a plan the servers run as bootstraps
// (spawnServer with boot set), so a reborn incarnation re-listens at
// the same address, adopts committed sessions from the node's resume
// store, and keeps serving: forkServe's accept loop is unbounded (a
// parked accept keeps nothing going, so the run still ends once its
// work does) and respond corks every session response so resume state
// commits before any byte a client could acknowledge reaches the wire.
// The web bootstrap is the forked web server itself; the kvstore's is
// kvBoot.

// kvBoot is the kvstore bootstrap for node idx: the primary on node 0,
// or the backup replica, which applies replicated SETs and streams its
// whole table to a recovering primary on kvSyncReq. With a replica
// (repl non-nil) each primary incarnation first recovers its table
// from the backup over a session, then listens; every SET is
// synchronously replicated before its response commits, so no
// acknowledged write is lost to a primary crash. The table lives in
// the incarnation, so a backup reboot starts empty — safe under the
// single-failure model, where the primary's copy is intact whenever
// the backup is reborn. An incarnation that boots after the replica
// was shut down serves without one: no client is left to write.
func kvBoot(c *cluster.Cluster, cfg KVConfig, idx int, repl *kvReplica) func(p *sim.Proc) error {
	label, backlog := "kv", cfg.Clients
	if idx != 0 {
		label, backlog = "kv-bak", 4
	}
	return func(p *sim.Proc) error {
		t := newKVTable(cfg)
		if repl != nil && !repl.shut {
			conn, err := sessionDial(c, idx, repl.backup, cfg.Port, "kv-repl")(p)
			if err != nil {
				return fmt.Errorf("kv: replica dial: %w", err)
			}
			if err := kvRecover(p, conn, t.store); err != nil {
				return fmt.Errorf("kv: replica sync: %w", err)
			}
			t.repl, t.replMu = conn, sim.NewSemaphore(c.Eng, "kv.repl", 1)
			repl.conn = conn
			if repl.shut {
				repl.shutdown(p)
			}
		}
		l, err := sessionListen(c, idx, label)(p, cfg.Port, backlog)
		if err != nil {
			return err
		}
		return forkServe(p, l, 0, label, kvHandle(t))
	}
}

// kvReplica is the replicated harness's hold on the primary's session
// to its backup. Its keepalives and health watchdogs tick until the
// session closes, so once every client is done the harness shuts it
// down and the run can end.
type kvReplica struct {
	backup int       // the backup's node index
	conn   sock.Conn // the latest primary incarnation's session, nil before the first
	shut   bool      // replication is over; no incarnation dials the backup again
}

// shutdown ends replication: the live session closes, its backup
// handler reads EOF, and both ends' keepalive and watchdog procs exit
// at their next tick.
func (r *kvReplica) shutdown(p *sim.Proc) {
	r.shut = true
	if r.conn != nil {
		r.conn.Close(p)
		r.conn = nil
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

// kvReplicate forwards one SET to the backup and waits for its ack,
// holding the table's replication session for the exchange.
func kvReplicate(p *sim.Proc, t *kvTable, req *kvRequest) error {
	t.replMu.Acquire(p)
	defer t.replMu.Release()
	fwd := &kvRequest{Op: kvSet, Key: req.Key, ValLen: req.ValLen, Val: req.Val}
	if err := kvSendRequest(p, t.repl, fwd); err != nil {
		return err
	}
	ack, err := kvRecvResponse(p, t.repl)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("kv: replica rejected set")
	}
	return nil
}

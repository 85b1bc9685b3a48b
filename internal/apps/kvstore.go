package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// Key-value store: the paper's stated future work is "utilizing and
// evaluating the proposed substrate for a range of commercial
// applications in the Data center environment". This workload is a
// memcached-style in-memory store: clients hold persistent connections
// and issue GET/SET requests with small keys and configurable value
// sizes; the server answers from an in-memory table. Request latency is
// dominated by the socket round trip, which is exactly where the
// substrate's user-level path pays off.

// kvHeaderBytes frames every request and response.
const kvHeaderBytes = 16

// kvOp codes.
const (
	kvGet = iota
	kvSet
	// kvSyncReq asks a replica for its whole table: the response is a
	// bare summary header whose ValLen carries the entry count, followed
	// by that many kvSyncEnt-framed entries. A reborn primary issues it
	// before accepting its first client.
	kvSyncReq
	// kvSyncEnt frames one table entry inside a sync stream (same wire
	// shape as a SET request).
	kvSyncEnt
)

// kvRequest is the request payload object riding on the framed bytes.
type kvRequest struct {
	Op     int
	Key    string
	ValLen int
	Val    any
}

// kvResponse is the response payload object.
type kvResponse struct {
	OK     bool
	ValLen int
	Val    any
}

// KVConfig parameterizes the workload.
type KVConfig struct {
	// Clients is the number of client nodes (each one connection).
	Clients int
	// OpsPerClient is the request count per client.
	OpsPerClient int
	// ValueBytes is the stored value size.
	ValueBytes int
	// SetEveryN makes every n-th operation a SET (the rest are GETs).
	SetEveryN int
	// Keys is the key-space size.
	Keys int
	// Port is the server's listen port.
	Port int
	// Drain makes the server gracefully quiesce its host transport
	// after the last client disconnects. Off by default so the measured
	// workload is unchanged.
	Drain bool
	// DrainTimeout bounds the quiesce; zero uses a 50 ms default.
	DrainTimeout sim.Duration
	// Sessions runs every connection through the self-healing session
	// layer: transports that die mid-operation are redialed (failing
	// over from the substrate to kernel TCP on Failover clusters) and
	// the byte stream resumes where the peer left off. Incompatible
	// with Workers (sessions are not pollable). Off by default.
	Sessions bool
	// Think pauses each client for this long after every completed
	// operation. Zero (the default) keeps the measured workload
	// unchanged; the chaos suite uses it to stretch the run across its
	// scheduled fault windows.
	Think sim.Duration
	// Replicate runs a backup replica on the cluster's last node: every
	// SET is synchronously applied there before the primary acknowledges
	// it, and a rebooted primary recovers its whole table from the
	// backup before accepting clients — no acknowledged write is lost
	// across a primary crash–restart. Requires Sessions.
	Replicate bool
	// ReadYourWrites makes each client finish with one extra GET of the
	// last key it SET, verifying the acknowledged value survived the
	// run's scheduled restarts. The extra GET is not counted in the
	// latency histogram, so the exact-operation-count check still holds.
	ReadYourWrites bool
	// Workers > 0 serves with a pool of that many event-loop worker
	// processes sharing one poller (exclusive per-event delivery),
	// worker i pinned to host core i%Cores. Zero keeps the
	// process-per-connection server byte-for-byte unchanged.
	// Incompatible with Sessions.
	Workers int
	// ServiceTime is per-operation compute charged through the host's
	// core scheduler by the worker pool (hashing, serialization). Zero
	// adds no compute. Only the Workers>0 server honors it.
	ServiceTime sim.Duration
}

// DefaultKVConfig returns a read-heavy data-center mix.
func DefaultKVConfig(valueBytes int) KVConfig {
	return KVConfig{
		Clients:      3,
		OpsPerClient: 50,
		ValueBytes:   valueBytes,
		SetEveryN:    10,
		Keys:         64,
		Port:         11211,
	}
}

// KVResult reports the aggregate workload outcome.
type KVResult struct {
	Ops        int
	AvgLatency sim.Duration
	P99Latency sim.Duration
	Elapsed    sim.Duration
	Err        error
}

// OpsPerSec reports the aggregate throughput.
func (r KVResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// kvServer serves totalConns persistent connections, each handled by
// its own process, until every client disconnects.
func kvServer(p *sim.Proc, node *cluster.Node, cfg KVConfig, totalConns int, listen listenFn) error {
	var err error
	switch {
	case cfg.Workers > 0:
		err = kvServerWorkers(p, node, cfg, totalConns)
	default:
		err = kvServerForked(p, node, cfg, totalConns, listen)
	}
	if err == nil && cfg.Drain {
		err = drainNode(p, node, cfg.DrainTimeout)
	}
	return err
}

// kvServerForked is the handler-process-per-connection server.
func kvServerForked(p *sim.Proc, node *cluster.Node, cfg KVConfig, totalConns int, listen listenFn) error {
	l, err := listen(p, cfg.Port, totalConns)
	if err != nil {
		return err
	}
	defer l.Close(p)
	store := make(map[string]*kvResponse, cfg.Keys)
	wg := sim.NewWaitGroup(p.Engine(), "kv.handlers")
	for i := 0; i < totalConns; i++ {
		c, err := l.Accept(p)
		if err != nil {
			return err
		}
		setNoDelay(c)
		wg.Add(1)
		p.Engine().Spawn("kv-handler", func(hp *sim.Proc) {
			defer wg.Done()
			defer c.Close(hp)
			for {
				// Request: header + key (+ value for SET).
				n, objs, err := sock.ReadFull(hp, c, kvHeaderBytes)
				if err != nil || n < kvHeaderBytes || len(objs) == 0 {
					return // client closed
				}
				req, ok := objs[0].(*kvRequest)
				if !ok {
					return
				}
				body := len(req.Key)
				if req.Op == kvSet {
					body += req.ValLen
				}
				if body > 0 {
					if _, _, err := sock.ReadFull(hp, c, body); err != nil {
						return
					}
				}
				resp := &kvResponse{}
				switch req.Op {
				case kvSet:
					store[req.Key] = &kvResponse{OK: true, ValLen: req.ValLen, Val: req.Val}
					resp.OK = true
				case kvGet:
					if v, ok := store[req.Key]; ok {
						resp = v
					}
				}
				if _, err := c.Write(hp, kvHeaderBytes, resp); err != nil {
					return
				}
				if resp.ValLen > 0 {
					if _, err := c.Write(hp, resp.ValLen, nil); err != nil {
						return
					}
				}
			}
		})
	}
	wg.Wait(p)
	return nil
}

// kvClient issues the configured mix over one persistent connection.
func kvClient(p *sim.Proc, cfg KVConfig, dial dialFn, id int, lat *telemetry.Histogram) error {
	c, err := dial(p)
	if err != nil {
		return err
	}
	defer c.Close(p)
	setNoDelay(c)
	for i := 0; i < cfg.OpsPerClient; i++ {
		key := fmt.Sprintf("key-%d", (id*31+i)%cfg.Keys)
		req := &kvRequest{Op: kvGet, Key: key}
		// Prime the key space: the first pass and every n-th op write.
		if i < 1 || (cfg.SetEveryN > 0 && i%cfg.SetEveryN == 0) {
			req.Op = kvSet
			req.ValLen = cfg.ValueBytes
			req.Val = "value-object"
		}
		start := p.Now()
		body := len(req.Key)
		if req.Op == kvSet {
			body += req.ValLen
		}
		if _, err := c.Write(p, kvHeaderBytes, req); err != nil {
			return err
		}
		if body > 0 {
			if _, err := c.Write(p, body, nil); err != nil {
				return err
			}
		}
		_, objs, err := sock.ReadFull(p, c, kvHeaderBytes)
		if err != nil || len(objs) == 0 {
			return fmt.Errorf("kv: response header: %w", err)
		}
		resp, ok := objs[0].(*kvResponse)
		if !ok {
			return fmt.Errorf("kv: malformed response")
		}
		if resp.ValLen > 0 {
			if _, _, err := sock.ReadFull(p, c, resp.ValLen); err != nil {
				return err
			}
		}
		if req.Op == kvGet && !resp.OK && i >= cfg.Keys {
			return fmt.Errorf("kv: get miss on a primed key %q", key)
		}
		lat.ObserveDuration(p.Now().Sub(start))
		if cfg.Think > 0 {
			p.Sleep(cfg.Think)
		}
	}
	if cfg.ReadYourWrites {
		return kvReadYourWrites(p, cfg, c, id)
	}
	return nil
}

// kvReadYourWrites re-reads the last key the client wrote: the
// acknowledged value must have survived whatever crash–restart the run
// scheduled. The probe rides the same connection after the measured
// mix, outside the latency histogram.
func kvReadYourWrites(p *sim.Proc, cfg KVConfig, c sock.Conn, id int) error {
	last := 0
	for i := 0; i < cfg.OpsPerClient; i++ {
		if i < 1 || (cfg.SetEveryN > 0 && i%cfg.SetEveryN == 0) {
			last = i
		}
	}
	key := fmt.Sprintf("key-%d", (id*31+last)%cfg.Keys)
	if err := kvSendRequest(p, c, &kvRequest{Op: kvGet, Key: key}); err != nil {
		return err
	}
	_, objs, err := sock.ReadFull(p, c, kvHeaderBytes)
	if err != nil {
		return fmt.Errorf("kv: read-your-writes header: %w", err)
	}
	resp := findKVResponse(objs)
	if resp == nil {
		return fmt.Errorf("kv: malformed read-your-writes response")
	}
	if resp.ValLen > 0 {
		if _, _, err := sock.ReadFull(p, c, resp.ValLen); err != nil {
			return err
		}
	}
	if !resp.OK || resp.ValLen != cfg.ValueBytes {
		return fmt.Errorf("kv: lost acknowledged write %q across restart", key)
	}
	return nil
}

// RunKVStore runs the workload on a cluster of at least cfg.Clients+1
// nodes (node 0 serves).
func RunKVStore(c *cluster.Cluster, cfg KVConfig) KVResult {
	needNodes := cfg.Clients + 1
	if cfg.Replicate {
		needNodes++ // the backup replica takes the last node
	}
	if len(c.Nodes) < needNodes {
		return KVResult{Err: fmt.Errorf("kv: need %d nodes, have %d", needNodes, len(c.Nodes))}
	}
	if cfg.Replicate && !cfg.Sessions {
		return KVResult{Err: fmt.Errorf("kv: Replicate requires Sessions")}
	}
	// Bounded histogram, not sim.Sample: the run can absorb an
	// arbitrary number of operations without retaining one value each.
	// Registered so the cluster telemetry snapshot carries it too.
	lat := c.Nodes[0].Tel.Histogram("apps", "kv_latency_ns", telemetry.LatencyBounds())
	if cfg.Sessions && cfg.Workers > 0 {
		return KVResult{Err: fmt.Errorf("kv: Sessions and Workers are incompatible")}
	}
	listen := netListen(c.Nodes[0])
	if cfg.Sessions {
		listen = sessionListen(c, 0, "kv")
	}
	var srvErr error
	cliErrs := make([]error, cfg.Clients)
	var start, end sim.Time
	if cfg.Sessions && (cfg.Replicate || restartPlanned(c)) {
		// Crash-surviving harness: bootstraps registered with SetBoot so
		// a restarted host re-runs them, server completion measured by
		// the clients' exact operation count.
		if cfg.Replicate {
			backupIdx := len(c.Nodes) - 1
			bak := kvBackupBoot(c, cfg, backupIdx, &srvErr)
			c.SetBoot(backupIdx, bak)
			c.Eng.Spawn("kv-backup", bak)
			boot := kvPrimaryBoot(c, cfg, backupIdx, &srvErr)
			c.SetBoot(0, boot)
			c.Eng.Spawn("kv-server", boot)
		} else {
			boot := kvPrimaryBoot(c, cfg, -1, &srvErr)
			c.SetBoot(0, boot)
			c.Eng.Spawn("kv-server", boot)
		}
	} else {
		c.Eng.Spawn("kv-server", func(p *sim.Proc) {
			srvErr = kvServer(p, c.Nodes[0], cfg, cfg.Clients, listen)
		})
	}
	done := sim.NewWaitGroup(c.Eng, "kv.clients")
	done.Add(cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		dial := netDial(c.Nodes[i+1], c.Addr(0), cfg.Port)
		if cfg.Sessions {
			dial = sessionDial(c, i+1, 0, cfg.Port, "kv")
		}
		c.Eng.Spawn("kv-client", func(p *sim.Proc) {
			defer done.Done()
			p.Sleep(sim.Duration(20+10*i) * sim.Microsecond)
			if start == 0 {
				start = p.Now()
			}
			cliErrs[i] = kvClient(p, cfg, dial, i, lat)
			end = p.Now()
		})
	}
	c.Run(600 * sim.Second)
	res := KVResult{
		Ops:        int(lat.Count()),
		AvgLatency: sim.Duration(lat.Mean()),
		P99Latency: sim.Duration(lat.Percentile(99)),
		Elapsed:    end.Sub(start),
		Err:        srvErr,
	}
	for _, e := range cliErrs {
		if res.Err == nil && e != nil {
			res.Err = e
		}
	}
	want := cfg.Clients * cfg.OpsPerClient
	if res.Err == nil && res.Ops != want {
		res.Err = fmt.Errorf("kv: completed %d of %d operations", res.Ops, want)
	}
	return res
}

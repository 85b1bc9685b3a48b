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

// bodyLen is the byte count that follows a request's header: the key,
// plus the value for ops that carry one.
func (r *kvRequest) bodyLen() int {
	if r.Op == kvSet || r.Op == kvSyncEnt {
		return len(r.Key) + r.ValLen
	}
	return len(r.Key)
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

// kvServer serves the workload on node: the worker pool when
// cfg.Workers > 0, otherwise a handler process per connection, until
// all conns clients disconnect.
func kvServer(p *sim.Proc, node *cluster.Node, cfg KVConfig, conns int, listen listenFn) error {
	if cfg.Workers > 0 {
		return kvServerWorkers(p, node, cfg, conns)
	}
	l, err := listen(p, cfg.Port, conns)
	if err != nil {
		return err
	}
	return forkServe(p, l, conns, "kv", kvHandle(newKVTable(cfg)))
}

// kvTable is one server's in-memory table and, on a replicating
// primary, its session to the backup.
type kvTable struct {
	store map[string]*kvResponse
	// repl carries every SET to the backup before it is acknowledged;
	// nil when the server has no backup. It is shared by every handler
	// process, so replMu serializes its request/ack exchanges.
	repl   sock.Conn
	replMu *sim.Semaphore
}

func newKVTable(cfg KVConfig) *kvTable {
	return &kvTable{store: make(map[string]*kvResponse, cfg.Keys)}
}

// kvHandle serves one connection's requests until the client closes,
// its session detaches, or a request fails.
func kvHandle(t *kvTable) func(hp *sim.Proc, c sock.Conn) {
	return func(hp *sim.Proc, c sock.Conn) {
		for {
			req, err := kvRecvRequest(hp, c)
			if err != nil || kvRespond(hp, t, c, req) != nil {
				return
			}
		}
	}
}

// kvRespond answers one request. A SET is acknowledged (after the
// backup has applied it, when the table replicates), a GET answers with
// the stored entry or an empty, not-OK miss, and kvSyncReq streams the
// whole table. Any other op is an error, on which the caller closes the
// connection.
func kvRespond(p *sim.Proc, t *kvTable, c sock.Conn, req *kvRequest) error {
	var resp *kvResponse
	switch req.Op {
	case kvGet:
		if resp = t.store[req.Key]; resp == nil {
			resp = &kvResponse{}
		}
	case kvSet:
		t.store[req.Key] = &kvResponse{OK: true, ValLen: req.ValLen, Val: req.Val}
		resp = &kvResponse{OK: true}
		// Synchronous replication: the backup's ack must land before
		// this response commits, or the write is not acknowledged at
		// all.
		if t.repl != nil {
			if err := kvReplicate(p, t, req); err != nil {
				return err
			}
		}
	case kvSyncReq:
		return respond(p, c, func() error { return kvSendTable(p, c, t.store) })
	default:
		return fmt.Errorf("kv: unknown op %d", req.Op)
	}
	return respond(p, c, func() error { return kvSendResponse(p, c, resp) })
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
		if err := kvSendRequest(p, c, req); err != nil {
			return err
		}
		resp, err := kvRecvResponse(p, c)
		if err != nil {
			return err
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
	resp, err := kvRecvResponse(p, c)
	if err != nil {
		return fmt.Errorf("kv: read-your-writes: %w", err)
	}
	if !resp.OK || resp.ValLen != cfg.ValueBytes {
		return fmt.Errorf("kv: lost acknowledged write %q across restart", key)
	}
	return nil
}

// kvRecvRequest reads one framed request (header plus key and, for ops
// that carry one, value body).
func kvRecvRequest(p *sim.Proc, c sock.Conn) (*kvRequest, error) {
	_, objs, err := sock.ReadFull(p, c, kvHeaderBytes)
	if err != nil {
		return nil, err
	}
	var req *kvRequest
	for _, o := range objs {
		if r, ok := o.(*kvRequest); ok {
			req = r
		}
	}
	if req == nil {
		return nil, fmt.Errorf("kv: malformed request framing")
	}
	if body := req.bodyLen(); body > 0 {
		if _, _, err := sock.ReadFull(p, c, body); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// kvSendRequest writes one framed request.
func kvSendRequest(p *sim.Proc, c sock.Conn, req *kvRequest) error {
	if _, err := c.Write(p, kvHeaderBytes, req); err != nil {
		return err
	}
	if body := req.bodyLen(); body > 0 {
		if _, err := c.Write(p, body, nil); err != nil {
			return err
		}
	}
	return nil
}

// kvSendResponse writes one framed response with its value body.
func kvSendResponse(p *sim.Proc, c sock.Conn, resp *kvResponse) error {
	if _, err := c.Write(p, kvHeaderBytes, resp); err != nil {
		return err
	}
	if resp.ValLen > 0 {
		if _, err := c.Write(p, resp.ValLen, nil); err != nil {
			return err
		}
	}
	return nil
}

// kvRecvResponse reads one framed response (header plus value body).
// A sync summary, whose ValLen counts entries rather than body bytes,
// is read by kvRecover instead.
func kvRecvResponse(p *sim.Proc, c sock.Conn) (*kvResponse, error) {
	_, objs, err := sock.ReadFull(p, c, kvHeaderBytes)
	if err != nil {
		return nil, fmt.Errorf("kv: response header: %w", err)
	}
	resp := findKVResponse(objs)
	if resp == nil {
		return nil, fmt.Errorf("kv: malformed response")
	}
	if resp.ValLen > 0 {
		if _, _, err := sock.ReadFull(p, c, resp.ValLen); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// findKVResponse pulls the response object out of a framed header read.
func findKVResponse(objs []any) *kvResponse {
	for _, o := range objs {
		if r, ok := o.(*kvResponse); ok {
			return r
		}
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
	// Bounded histogram: the run can absorb an arbitrary number of
	// operations without retaining one value each. Registered so the
	// cluster telemetry snapshot carries it too.
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
	if cfg.Sessions && (cfg.Replicate || c.Cfg.Faults.HasRestarts()) {
		// Crash-surviving harness: the servers are their nodes'
		// bootstraps, so a restarted host re-runs them, and server
		// completion is measured by the clients' exact operation count.
		backupIdx := -1
		if cfg.Replicate {
			backupIdx = len(c.Nodes) - 1
			spawnServer(c, backupIdx, "kv-backup", true, &srvErr, kvBoot(c, cfg, backupIdx, -1))
		}
		spawnServer(c, 0, "kv-server", true, &srvErr, kvBoot(c, cfg, 0, backupIdx))
	} else {
		spawnServer(c, 0, "kv-server", false, &srvErr, func(p *sim.Proc) error {
			return kvServer(p, c.Nodes[0], cfg, cfg.Clients, listen)
		})
	}
	for i := 0; i < cfg.Clients; i++ {
		i := i
		dial := netDial(c.Nodes[i+1], c.Addr(0), cfg.Port)
		if cfg.Sessions {
			dial = sessionDial(c, i+1, 0, cfg.Port, "kv")
		}
		c.Eng.Spawn("kv-client", func(p *sim.Proc) {
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

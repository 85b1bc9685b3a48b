package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// Web server (Section 7.4): one server, three clients. Each client
// connects, sends a 16-byte request (a file name), and the server
// responds with S bytes. Under HTTP/1.0 the connection closes after one
// response; under HTTP/1.1 a connection carries up to eight requests.
// Connection setup cost dominates at small S, which is where the
// substrate's one-message connection management wins big over the
// kernel handshake.

// webRequestBytes is the request message size the paper specifies.
const webRequestBytes = 16

// WebConfig parameterizes the experiment.
type WebConfig struct {
	// ResponseBytes is S, swept from 4 B to 8 KB in the paper.
	ResponseBytes int
	// RequestsPerConn is 1 for HTTP/1.0 and up to 8 for HTTP/1.1.
	RequestsPerConn int
	// Clients is the number of client nodes (the paper uses 3).
	Clients int
	// RequestsPerClient is how many requests each client issues.
	RequestsPerClient int
	// Port is the server's listen port.
	Port int
	// Sessions runs every connection through the self-healing session
	// layer: transports that die mid-request are redialed (failing over
	// from the substrate to kernel TCP on Failover clusters) and the
	// byte stream resumes where the peer left off, so the workload
	// completes under NIC faults and link flaps. Incompatible with
	// Workers (sessions are not pollable). Off by default.
	Sessions bool
	// Think pauses each client for this long after every completed
	// request. Zero (the default) keeps the paper's measured workload
	// unchanged; the chaos suite uses it to stretch the run across its
	// scheduled fault windows.
	Think sim.Duration
	// Workers > 0 serves with a pool of that many event-loop worker
	// processes sharing one poller (exclusive per-event delivery),
	// worker i pinned to host core i%Cores. Zero keeps the
	// fork-per-connection server byte-for-byte unchanged. Incompatible
	// with Sessions.
	Workers int
	// ServiceTime is per-request compute charged through the host's
	// core scheduler by the worker pool (request parsing, page
	// rendering). Zero adds no compute. Only the Workers>0 server
	// honors it.
	ServiceTime sim.Duration
}

// DefaultWebConfig returns the paper's setup for a given response size.
func DefaultWebConfig(respBytes, reqsPerConn int) WebConfig {
	return WebConfig{
		ResponseBytes:     respBytes,
		RequestsPerConn:   reqsPerConn,
		Clients:           3,
		RequestsPerClient: 24,
		Port:              80,
	}
}

// WebResult aggregates client-observed response times.
type WebResult struct {
	Requests    int
	AvgResponse sim.Duration
	P50Response sim.Duration
	P99Response sim.Duration
	MaxResponse sim.Duration
	// Elapsed spans the first client's start to the last client's
	// finish (the core-scaling sweep's throughput denominator).
	Elapsed sim.Duration
	Err     error
}

// ReqPerSec reports the aggregate served-request throughput.
func (r WebResult) ReqPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// webServer serves the workload on node: the worker pool when
// cfg.Workers > 0, otherwise the paper's fork-per-connection server.
// That one accepts conns connections and closes each after
// cfg.RequestsPerConn responses, which fixes the timing Figs 15/16
// measure; conns == 0 is the crash-restart bootstrap, which serves
// every connection until its client closes, since a server that closed
// first would drop the committed session record a client cut off
// mid-response needs to resume.
func webServer(p *sim.Proc, node *cluster.Node, cfg WebConfig, conns int, listen listenFn) error {
	if cfg.Workers > 0 {
		return webServerWorkers(p, node, cfg, conns)
	}
	l, err := listen(p, cfg.Port, 16)
	if err != nil {
		return err
	}
	perConn := cfg.RequestsPerConn
	if conns == 0 {
		perConn = 0
	}
	return forkServe(p, l, conns, "web", webHandle(cfg, perConn))
}

// webHandle serves one connection: every 16-byte request gets one
// response, until the client closes or, with perConn > 0, perConn
// responses have been sent.
func webHandle(cfg WebConfig, perConn int) func(hp *sim.Proc, c sock.Conn) {
	return func(hp *sim.Proc, c sock.Conn) {
		for k := 0; perConn == 0 || k < perConn; k++ {
			n, _, err := sock.ReadFull(hp, c, webRequestBytes)
			if err != nil || n < webRequestBytes {
				return // client closed the keep-alive connection early, or the session detached
			}
			if webRespond(hp, cfg, c) != nil {
				return
			}
		}
	}
}

// webRespond answers one request with S bytes from memory.
func webRespond(p *sim.Proc, cfg WebConfig, c sock.Conn) error {
	return respond(p, c, func() error {
		_, err := c.Write(p, cfg.ResponseBytes, "response")
		return err
	})
}

// webClient issues cfg.RequestsPerClient requests, opening a new
// connection every cfg.RequestsPerConn requests, and records the
// client-observed response time of each (connection establishment is
// charged to the first request of each connection, as a browser user
// would experience it).
func webClient(p *sim.Proc, cfg WebConfig, dial dialFn, lat *telemetry.Histogram) error {
	issued := 0
	for issued < cfg.RequestsPerClient {
		start := p.Now()
		c, err := dial(p)
		if err != nil {
			return err
		}
		for k := 0; k < cfg.RequestsPerConn && issued < cfg.RequestsPerClient; k++ {
			if k > 0 {
				start = p.Now()
			}
			if _, err := c.Write(p, webRequestBytes, "GET /index"); err != nil {
				c.Close(p)
				return err
			}
			if _, _, err := sock.ReadFull(p, c, cfg.ResponseBytes); err != nil {
				c.Close(p)
				return err
			}
			lat.ObserveDuration(p.Now().Sub(start))
			issued++
			if cfg.Think > 0 {
				p.Sleep(cfg.Think)
			}
		}
		c.Close(p)
	}
	return nil
}

// RunWeb runs the experiment on a cluster of at least cfg.Clients+1
// nodes (node 0 serves) and reports the average response time across
// all requests.
func RunWeb(c *cluster.Cluster, cfg WebConfig) WebResult {
	if len(c.Nodes) < cfg.Clients+1 {
		return WebResult{Err: fmt.Errorf("web: need %d nodes, have %d", cfg.Clients+1, len(c.Nodes))}
	}
	if cfg.Sessions && cfg.Workers > 0 {
		return WebResult{Err: fmt.Errorf("web: Sessions and Workers are incompatible")}
	}
	total := cfg.Clients * cfg.RequestsPerClient
	connsPerClient := (cfg.RequestsPerClient + cfg.RequestsPerConn - 1) / cfg.RequestsPerConn
	// Bounded histogram: response collection is the long-running path,
	// so memory must not scale with request count.
	lat := c.Nodes[0].Tel.Histogram("apps", "web_response_ns", telemetry.LatencyBounds())
	listen := netListen(c.Nodes[0])
	if cfg.Sessions {
		listen = sessionListen(c, 0, "web")
	}
	// Under a restart plan the server is the node's bootstrap: a
	// restarted host re-listens and resumes committed sessions, and
	// completion is measured by the clients' exact request count.
	boot := cfg.Sessions && c.Cfg.Faults.HasRestarts()
	conns := cfg.Clients * connsPerClient
	if boot {
		conns = 0
	}
	var srvErr error
	spawnServer(c, 0, "web-server", boot, &srvErr, func(p *sim.Proc) error {
		return webServer(p, c.Nodes[0], cfg, conns, listen)
	})
	cliErrs := make([]error, cfg.Clients)
	var start, end sim.Time
	for i := 0; i < cfg.Clients; i++ {
		i := i
		dial := netDial(c.Nodes[i+1], c.Addr(0), cfg.Port)
		if cfg.Sessions {
			dial = sessionDial(c, i+1, 0, cfg.Port, "web")
		}
		c.Eng.Spawn("web-client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(20+10*i) * sim.Microsecond)
			if start == 0 {
				start = p.Now()
			}
			cliErrs[i] = webClient(p, cfg, dial, lat)
			end = p.Now()
		})
	}
	c.Run(cluster.RunLimit)
	res := WebResult{
		Requests:    int(lat.Count()),
		AvgResponse: sim.Duration(lat.Mean()),
		P50Response: sim.Duration(lat.Percentile(50)),
		P99Response: sim.Duration(lat.Percentile(99)),
		MaxResponse: sim.Duration(lat.Max()),
		Elapsed:     end.Sub(start),
		Err:         srvErr,
	}
	for _, e := range cliErrs {
		if res.Err == nil && e != nil {
			res.Err = e
		}
	}
	if res.Err == nil && res.Requests != total {
		res.Err = fmt.Errorf("web: completed %d of %d requests", res.Requests, total)
	}
	return res
}

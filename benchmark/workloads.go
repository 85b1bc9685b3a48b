package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// params sizes one workload.
type params struct {
	// reps is R, the fresh-cluster repetitions whose simulated results
	// are reported. Repetition i uses seed+i.
	reps int
	// ops is the work per repetition: echo exchanges, web requests, FTP
	// transfers or kvstore operations.
	ops int
	// bytes is the FTP file size before the seeded page jitter.
	bytes int
	// repSeconds is the nominal host time of one repetition on a 2-core
	// x86 box. A run of -seconds S times round(S/repSeconds) repetitions
	// (at least R): a count set by the benchmark, not by how fast the
	// code under test happens to be.
	repSeconds float64
}

// workload is one named traffic mix. Every workload is a closed loop:
// each client waits for its reply before sending again.
type workload struct {
	name  string
	why   string
	full  params
	quick params
	// setup builds repetition rep: it generates the seeded inputs,
	// assembles a fresh cluster and binds the measured call.
	setup func(seed uint64, rep int, p params, tr *tracer) *rig
}

// rig is one repetition ready to run.
type rig struct {
	c *cluster.Cluster
	// call is the measured call (cluster.Run or an apps.Run* function).
	call func() error
	// collect checks the call's outputs and reports the repetition's
	// work, simulated duration and latency samples.
	collect func(out *repOut) error
}

// repOut is what a workload reports about one repetition.
type repOut struct {
	ops int64
	// elapsed is the simulated time the workload was active; the engine
	// may keep stepping idle machinery long after.
	elapsed sim.Duration
	// payload is the application bytes the workload moved.
	payload int64
	// exact holds latency samples (ns) the benchmark timed itself; hist
	// holds the app's own response-time histogram otherwise.
	exact []float64
	hist  *telemetry.Histogram
	// dial, write and read are the simulated time spent inside the
	// benchmark's own sock.Network.Dial, Conn.Write and Conn.Read calls.
	dial, write, read spanSum
}

// spanSum accumulates the simulated durations of one kind of call.
type spanSum struct {
	n   int64
	sum sim.Duration
}

func (s *spanSum) add(d sim.Duration) {
	s.n++
	s.sum += d
}

func (s *spanSum) merge(o spanSum) {
	s.n += o.n
	s.sum += o.sum
}

// meanUs reports the mean call duration in microseconds, 0 when no call
// was made.
func (s spanSum) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n) / 1e3
}

// runLimit bounds every cluster.Run the benchmark drives; the apps
// Run functions use the same limit internally.
const runLimit = 600 * sim.Second

var workloads = []*workload{
	{
		name:  "echo-substrate",
		why:   "per-message substrate path core-emp-nic-ethernet plus connection setup and teardown; most proc switches per op",
		full:  params{reps: 5, ops: 30000, repSeconds: 1.6},
		quick: params{reps: 1, ops: 400},
		setup: echoSetup,
	},
	{
		name:  "web-tcp",
		why:   "kernel TCP handshake, demux, syscall and copy costs, multi-waiter poller and worker pool; bypasses emp, nic and core",
		full:  params{reps: 5, ops: 12000, repSeconds: 1},
		quick: params{reps: 1, ops: 200},
		setup: webSetup,
	},
	{
		name:  "ftp-substrate",
		why:   "bulk bytes: fdtable and ramfs, 64 KB eager writes, EMP fragmentation, NIC DMA and link bandwidth; per-message costs vanish",
		full:  params{reps: 5, ops: 6, bytes: 64 << 20, repSeconds: 1.25},
		quick: params{reps: 1, ops: 2, bytes: 1 << 20},
		setup: ftpSetup,
	},
	{
		name:  "kv-failover",
		why:   "sessions, synchronous replication and the idle machinery (credit sweep, keepalives, session watchdog) of Failover clusters",
		full:  params{reps: 3, ops: 1500, repSeconds: 7},
		quick: params{reps: 1, ops: 60},
		setup: kvSetup,
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// rng returns the seeded input generator of one workload; stream keeps
// the workloads' input sequences independent of each other.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// jitter draws one repetition's offset from a workload input's nominal
// value: repetition rep of R draws from the rep-th of R adjacent strata
// of the given width, centred on zero. The seed moves every latency
// while the run's mean input stays put.
func jitter(seed uint64, rep, reps, width int, stream uint64) int {
	return width*(rep%reps) - width*reps/2 + rng(seed, stream).IntN(width)
}

// fineBounds are histogram buckets (in ns) 10% wide from 1 µs up to
// from, then ratio wide up to to; larger values share one overflow
// bucket. The apps look their latency histogram up by name and the
// registry keeps the first bounds it sees, so registering these before
// the run replaces the default doubling buckets, which cannot show a 1%
// shift. Observe scans the bounds linearly, so the fine region starts
// just below the workload's latencies and is only as fine as the
// workload's sample count can afford.
func fineBounds(from, to, ratio float64) []float64 {
	var b []float64
	for v := 1e3; v < from; v *= 1.1 {
		b = append(b, v)
	}
	for v := from; v < to; v *= 1 + ratio {
		b = append(b, v)
	}
	return b
}

var (
	// webBounds has 0.1% buckets above 100 µs: a web response takes
	// ~450 µs.
	webBounds = fineBounds(1e5, 1e9, 1e-3)
	// kvBounds has 50 ppm buckets, about 10 ns wide, from 90 µs to 1 ms.
	// Half the operations are reads (~140 µs) and half replicated writes
	// (~240 µs), so the median falls between the two clusters, and only
	// near-exact samples place it.
	kvBounds = fineBounds(9e4, 1e6, 5e-5)
)

// newCluster is cluster.New with a host span around it.
func newCluster(tr *tracer, cfg cluster.Config) *cluster.Cluster {
	defer tr.hostSpan("cluster.New")()
	return cluster.New(cfg)
}

// setNoDelay disables Nagle where the transport has it.
func setNoDelay(c sock.Conn) {
	if nd, ok := c.(interface{ SetNoDelay(bool) }); ok {
		nd.SetNoDelay(true)
	}
}

// --- echo-substrate ------------------------------------------------------

const (
	echoPort  = 7
	echoConns = 4
)

// exchange is one echo round trip: the client writes size bytes and
// reads the same count back, then redials if redial is set.
type exchange struct {
	size   int
	redial bool
}

// echoMsg rides the final byte of each echo write; the server returns
// the same object, so the client can tell its reply from any other.
type echoMsg struct {
	conn, seq, size int
}

// echoInputs deals total exchanges round-robin to the connections: 80%
// 64 B, 15% 1 KB and 5% 16 KB messages, a redial after 1 in 64 of them
// (never after a connection's last exchange). The counts are fixed; the
// seed decides their order. It also returns the number of dials the
// server will accept.
func echoInputs(seed uint64, total int) ([][]exchange, int) {
	xs := make([]exchange, total)
	for k := range xs {
		xs[k].size = 64
		switch {
		case k < total/20:
			xs[k].size = 16 << 10
		case k < total/20+total*15/100:
			xs[k].size = 1 << 10
		}
		xs[k].redial = k%64 == 0
	}
	r := rng(seed, 0xec40)
	r.Shuffle(total, func(i, j int) { xs[i].size, xs[j].size = xs[j].size, xs[i].size })
	r.Shuffle(total, func(i, j int) { xs[i].redial, xs[j].redial = xs[j].redial, xs[i].redial })
	in := make([][]exchange, echoConns)
	for k, x := range xs {
		in[k%echoConns] = append(in[k%echoConns], x)
	}
	dials := 0
	for _, cx := range in {
		dials++
		if len(cx) > 0 {
			cx[len(cx)-1].redial = false
		}
		for _, x := range cx {
			if x.redial {
				dials++
			}
		}
	}
	return in, dials
}

// echoRun is the shared state of one echo repetition.
type echoRun struct {
	tr         *tracer
	want       int
	err        error
	echoed     int
	clientsOut int
	start, end sim.Time
	rtts       []float64
	payload    int64
	dial       spanSum
	write      spanSum
	read       spanSum
}

func (e *echoRun) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func echoSetup(seed uint64, rep int, p params, tr *tracer) *rig {
	in, dials := echoInputs(seed, p.ops)
	c := newCluster(tr, cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Seed: seed})
	e := &echoRun{tr: tr, want: p.ops, rtts: make([]float64, 0, p.ops)}
	c.Eng.Spawn("echo-server", func(sp *sim.Proc) { e.serve(sp, c.Nodes[0].Net, dials) })
	for i := range in {
		i := i
		c.Eng.Spawn("echo-client", func(cp *sim.Proc) {
			cp.Sleep(sim.Duration(20+10*i) * sim.Microsecond)
			e.client(cp, c.Nodes[1].Net, c.Addr(0), i, in[i])
		})
	}
	return &rig{
		c: c,
		call: func() error {
			defer tr.hostSpan("cluster.Run")()
			c.Run(runLimit)
			return nil
		},
		collect: func(out *repOut) error {
			if e.err != nil {
				return e.err
			}
			if e.echoed != e.want || len(e.rtts) != e.want || e.clientsOut != len(in) {
				return fmt.Errorf("echo: %d of %d exchanges echoed, %d of %d clients done",
					e.echoed, e.want, e.clientsOut, len(in))
			}
			out.ops = int64(len(e.rtts))
			out.elapsed = e.end.Sub(e.start)
			out.payload = e.payload
			out.exact = e.rtts
			out.dial, out.write, out.read = e.dial, e.write, e.read
			return nil
		},
	}
}

// serve accepts every dial the inputs will make and echoes each
// connection until its client closes it.
func (e *echoRun) serve(p *sim.Proc, net sock.Network, dials int) {
	l, err := net.Listen(p, echoPort, 2*echoConns)
	if err != nil {
		e.fail(fmt.Errorf("echo: listen: %w", err))
		return
	}
	defer l.Close(p)
	wg := sim.NewWaitGroup(p.Engine(), "echo.handlers")
	for i := 0; i < dials; i++ {
		cn, err := l.Accept(p)
		if err != nil {
			e.fail(fmt.Errorf("echo: accept: %w", err))
			return
		}
		setNoDelay(cn)
		wg.Add(1)
		p.Engine().Spawn("echo-handler", func(hp *sim.Proc) {
			defer wg.Done()
			e.echo(hp, cn)
		})
	}
	wg.Wait(p)
}

// echo returns every message on cn with the same byte count and object.
func (e *echoRun) echo(p *sim.Proc, cn sock.Conn) {
	defer cn.Close(p)
	pending := 0
	for {
		n, objs, err := cn.Read(p, 64<<10)
		if err != nil {
			e.fail(fmt.Errorf("echo: server read: %w", err))
			return
		}
		if n == 0 {
			return // the client closed
		}
		pending += n
		for _, o := range objs {
			m, ok := o.(*echoMsg)
			if !ok || m.size != pending {
				e.fail(fmt.Errorf("echo: server framed %d bytes for message %+v", pending, o))
				return
			}
			pending = 0
			if _, err := cn.Write(p, m.size, m); err != nil {
				e.fail(fmt.Errorf("echo: server write: %w", err))
				return
			}
			e.echoed++
		}
	}
}

// client runs one connection's exchanges, timing each round trip.
func (e *echoRun) client(p *sim.Proc, net sock.Network, srv sock.Addr, id int, xs []exchange) {
	if e.start == 0 || p.Now() < e.start {
		e.start = p.Now()
	}
	cn, err := e.dialOnce(p, net, srv, id)
	if err != nil {
		e.fail(err)
		return
	}
	for k, x := range xs {
		m := &echoMsg{conn: id, seq: k, size: x.size}
		t0 := p.Now()
		if _, err := cn.Write(p, x.size, m); err != nil {
			e.fail(fmt.Errorf("echo: client write: %w", err))
			return
		}
		t1 := p.Now()
		n, objs, err := sock.ReadFull(p, cn, x.size)
		if err != nil {
			e.fail(fmt.Errorf("echo: client read: %w", err))
			return
		}
		t2 := p.Now()
		if n != x.size || len(objs) != 1 || objs[0] != any(m) {
			e.fail(fmt.Errorf("echo: reply %d bytes %v does not match request %+v", n, objs, *m))
			return
		}
		e.write.add(t1.Sub(t0))
		e.read.add(t2.Sub(t1))
		e.tr.simSpan("Conn.Write", id, t0, t1)
		e.tr.simSpan("Conn.Read", id, t1, t2)
		e.rtts = append(e.rtts, float64(t2.Sub(t0)))
		e.payload += 2 * int64(x.size)
		if x.redial {
			cn.Close(p)
			if cn, err = e.dialOnce(p, net, srv, id); err != nil {
				e.fail(err)
				return
			}
		}
	}
	cn.Close(p)
	e.clientsOut++
	if p.Now() > e.end {
		e.end = p.Now()
	}
}

func (e *echoRun) dialOnce(p *sim.Proc, net sock.Network, srv sock.Addr, id int) (sock.Conn, error) {
	t0 := p.Now()
	cn, err := net.Dial(p, srv, echoPort)
	e.dial.add(p.Now().Sub(t0))
	e.tr.simSpan("Network.Dial", id, t0, p.Now())
	if err != nil {
		return nil, fmt.Errorf("echo: dial: %w", err)
	}
	setNoDelay(cn)
	return cn, nil
}

// --- web-tcp -------------------------------------------------------------

func webSetup(seed uint64, rep int, p params, tr *tracer) *rig {
	cfg := apps.WebConfig{
		ResponseBytes:     1024,
		RequestsPerConn:   1, // HTTP/1.0
		Clients:           4,
		RequestsPerClient: p.ops / 4,
		Port:              80,
		Workers:           4,
		// 50 µs, give or take a few µs.
		ServiceTime: 50*sim.Microsecond + sim.Duration(jitter(seed, rep, p.reps, 3000, 0x7765)),
	}
	c := newCluster(tr, cluster.Config{Nodes: cfg.Clients + 1, Transport: cluster.TransportTCP, Cores: 4, Seed: seed})
	h := c.Nodes[0].Tel.Histogram("apps", "web_response_ns", webBounds)
	var res apps.WebResult
	return &rig{
		c: c,
		call: func() error {
			defer tr.hostSpan("apps.RunWeb")()
			res = apps.RunWeb(c, cfg)
			return res.Err
		},
		collect: func(out *repOut) error {
			want := cfg.Clients * cfg.RequestsPerClient
			if res.Requests != want || h.Count() != int64(want) {
				return fmt.Errorf("web: %d of %d requests answered (%d timed)", res.Requests, want, h.Count())
			}
			out.ops = int64(want)
			out.elapsed = res.Elapsed
			out.payload = int64(want) * int64(cfg.ResponseBytes)
			out.hist = h
			return nil
		},
	}
}

// --- ftp-substrate -------------------------------------------------------

func ftpSetup(seed uint64, rep int, p params, tr *tracer) *rig {
	// Each file is the nominal size plus up to 63 pages, so the seed
	// moves the transfers without changing what they exercise.
	r := rng(seed, 0x667470)
	sizes := make([]int, p.ops)
	for i := range sizes {
		sizes[i] = p.bytes + 4096*r.IntN(64)
	}
	c := newCluster(tr, cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Seed: seed})
	dst := c.Nodes[1].FS
	var results []apps.FTPResult
	return &rig{
		c: c,
		call: func() error {
			for _, n := range sizes {
				dst.Remove("copy.bin")
				end := tr.hostSpan("apps.RunFTP")
				res := apps.RunFTP(c, n)
				end()
				if res.Err != nil {
					return res.Err
				}
				if got, ok := dst.Stat("copy.bin"); !ok || got != n {
					return fmt.Errorf("ftp: copy holds %d of %d bytes", got, n)
				}
				results = append(results, res)
			}
			return nil
		},
		collect: func(out *repOut) error {
			if len(results) != len(sizes) {
				return fmt.Errorf("ftp: %d of %d transfers finished", len(results), len(sizes))
			}
			for _, res := range results {
				out.ops++
				out.elapsed += res.Elapsed
				out.payload += int64(res.Bytes)
				out.exact = append(out.exact, float64(res.Elapsed))
			}
			return nil
		},
	}
}

// --- kv-failover ---------------------------------------------------------

func kvSetup(seed uint64, rep int, p params, tr *tracer) *rig {
	cfg := apps.KVConfig{
		Clients:      3,
		OpsPerClient: p.ops / 3,
		ValueBytes:   1024 + jitter(seed, rep, p.reps, 12, 0x6b76),
		// Every second op writes. The default of every tenth fails the
		// app's primed-key check beyond 64 ops per client.
		SetEveryN:      2,
		Keys:           64,
		Port:           11211,
		Sessions:       true,
		Replicate:      true, // the backup takes the last node
		Think:          2 * sim.Millisecond,
		ReadYourWrites: true,
	}
	c := newCluster(tr, cluster.Config{Nodes: cfg.Clients + 2, Failover: true, Seed: seed})
	h := c.Nodes[0].Tel.Histogram("apps", "kv_latency_ns", kvBounds)
	var res apps.KVResult
	return &rig{
		c: c,
		call: func() error {
			defer tr.hostSpan("apps.RunKVStore")()
			res = apps.RunKVStore(c, cfg)
			return res.Err
		},
		collect: func(out *repOut) error {
			want := cfg.Clients * cfg.OpsPerClient
			if res.Ops != want || h.Count() != int64(want) {
				return fmt.Errorf("kv: %d of %d operations answered (%d timed)", res.Ops, want, h.Count())
			}
			out.ops = int64(want)
			out.elapsed = res.Elapsed
			// Every operation carries one value: up with a SET, down with
			// a GET.
			out.payload = int64(want) * int64(cfg.ValueBytes)
			out.hist = h
			return nil
		},
	}
}

package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// Chaos is one table-driven matrix over fault domain × workload: link
// (random link plans on both transports, plus a node crash), nic, fabric
// and restart. A run passes only on exact output, a clean leak audit and
// the domain's evidence that recovery happened; a domain's control reruns
// one plan with the recovery disabled and must fail, proving it bites.

// ChaosDomains lists the fault domains in report order.
var ChaosDomains = []string{"link", "nic", "fabric", "restart"}

// ChaosRun is one workload execution under one fault plan.
type ChaosRun struct {
	Workload string // "ftp", "kvstore", "web", "crash", or "control"
	Point    string // transport, NIC fault kind, fabric failure or rebooted host
	Seed     uint64
	OK       bool
	Detail   string  // failure text, or a recovery note
	Counters []int64 // one per counter column of the domain
	// FlightDumps holds the flight-recorder rings of connections that
	// died (sock.ErrReset) or, on an audit finding, of every connection.
	FlightDumps []telemetry.Dump

	snap *telemetry.Snapshot // the run's counters, before the audit
}

// ChaosReport is one domain's matrix.
type ChaosReport struct {
	Runs   []ChaosRun
	domain *chaosDomain
}

// chaosPoint is one row group of a domain's matrix.
type chaosPoint struct {
	name string            // printed in the point column
	apps []string          // workloads run at this point, in row order
	tr   cluster.Transport // link: the transport under test
}

// chaosScale is a domain's point list and workload sizes at one setting:
// web requests and kvstore ops per client, FTP file bytes.
type chaosScale struct {
	points         []chaosPoint
	reqs, ops, ftp int
}

// chaosCol is one counter column of a domain's report: the sum of the
// named cluster-snapshot counters ("layer/metric"). Nil keys make it the
// run's leak-audit finding count.
type chaosCol struct {
	header string
	width  int
	keys   []string
}

// col is a column summing the named counters.
func col(header string, width int, keys ...string) chaosCol {
	return chaosCol{header: header, width: width, keys: keys}
}

// chaosControl reruns one point's plan with the web workload and the
// domain's recovery disabled; OK then means the workload did NOT complete.
type chaosControl struct {
	point     chaosPoint
	noReroute bool   // also freeze the fabric's routing tables
	without   string // the disabled recovery, for the detail text
	bites     string // the detail when the control completes anyway
	want      error  // the error it must fail with; nil accepts any failure
}

// chaosDomain is one row of the table: all that differs between domains.
type chaosDomain struct {
	title       string
	point       string // point column header
	width       int    // point column width
	full, quick chaosScale
	plan        func(pt chaosPoint, app string, seed uint64, nodes int) *faults.Plan
	cluster     cluster.Config // each run fills Nodes, Transport, Seed and Faults
	sessions    bool           // web and kvstore run over sessions, 8 ms think time
	replicate   bool           // kvstore adds a backup node and a read-your-writes probe
	// pass says why a completed session run fails, or "".
	pass        func(c *cluster.Cluster, snap *telemetry.Snapshot, pt chaosPoint) string
	cols        []chaosCol
	control     *chaosControl
	faultTotals bool // the footer sums the injected link faults
}

var (
	chaosTable = map[string]*chaosDomain{"link": linkChaos, "nic": nicChaos, "fabric": fabricChaos, "restart": restartChaos}
	chaosNodes = map[string]int{"web": 4, "kvstore": 4, "ftp": 2, "crash": 2} // cluster size per workload
)

// Chaos runs one domain's matrix: every point × every seed × the
// point's workloads, then the domain's control once per seed.
func Chaos(domain string, seeds int, quick bool) (ChaosReport, error) {
	d := chaosTable[domain]
	if d == nil {
		return ChaosReport{}, fmt.Errorf("unknown chaos domain %q (want %s)", domain, strings.Join(ChaosDomains, ", "))
	}
	sc := d.full
	if quick {
		sc = d.quick
	}
	rep := ChaosReport{domain: d}
	for _, pt := range sc.points {
		for seed := uint64(1); seed <= uint64(max(seeds, 1)); seed++ {
			for _, app := range pt.apps {
				rep.Runs = append(rep.Runs, d.run(pt, app, seed, sc, nil))
			}
		}
	}
	for seed := uint64(1); d.control != nil && seed <= uint64(max(seeds, 1)); seed++ {
		rep.Runs = append(rep.Runs, d.run(d.control.point, "web", seed, sc, d.control))
	}
	return rep, nil
}

// run executes one workload at one point on a fresh cluster; a non-nil
// ctl makes it the control.
func (d *chaosDomain) run(pt chaosPoint, app string, seed uint64, sc chaosScale, ctl *chaosControl) ChaosRun {
	r := ChaosRun{Workload: app, Point: pt.name, Seed: seed}
	nodes := chaosNodes[app]
	if app == "kvstore" && d.replicate {
		nodes++
	}
	cfg := d.cluster
	cfg.Nodes, cfg.Transport, cfg.Seed = nodes, pt.tr, seed
	cfg.Faults = d.plan(pt, app, seed, nodes)
	if ctl != nil {
		r.Workload = "control"
		if ctl.noReroute {
			topo := *cfg.Topology
			topo.NoReroute = true
			cfg.Topology = &topo
		}
	}
	c := cluster.New(cfg)
	switch app {
	case "web":
		r.OK, r.Detail = d.web(c, sc, ctl)
	case "kvstore":
		r.OK, r.Detail = d.kv(c, sc)
	case "ftp":
		r.OK, r.Detail = chaosFTP(c, sc.ftp)
	case "crash":
		r.OK, r.Detail = chaosCrash(c)
	}
	d.fold(c, pt, &r)
	return r
}

// exact is the exact-output check: no error, exactly want units done.
func exact(err error, got, want int, unit, done string) (bool, string) {
	switch {
	case err != nil:
		return false, err.Error()
	case got != want:
		return false, fmt.Sprintf("%d of %d %s", got, want, unit)
	}
	return true, done
}

func (d *chaosDomain) web(c *cluster.Cluster, sc chaosScale, ctl *chaosControl) (bool, string) {
	cfg := apps.DefaultWebConfig(1024, 8)
	cfg.RequestsPerClient = sc.reqs
	if d.sessions { // the think time stretches the run past the latest fault
		cfg.Sessions = ctl == nil
		cfg.Think = 8 * sim.Millisecond
	}
	res := apps.RunWeb(c, cfg)
	want := cfg.Clients * cfg.RequestsPerClient
	if ctl != nil {
		return ctl.judge(res.Err, res.Requests, want)
	}
	return exact(res.Err, res.Requests, want, "requests", fmt.Sprintf("%d requests served", res.Requests))
}

func (d *chaosDomain) kv(c *cluster.Cluster, sc chaosScale) (bool, string) {
	cfg := apps.DefaultKVConfig(1024)
	cfg.OpsPerClient = sc.ops
	if d.sessions {
		cfg.Sessions = true
		cfg.Think = 8 * sim.Millisecond
	}
	cfg.Replicate, cfg.ReadYourWrites = d.replicate, d.replicate
	res := apps.RunKVStore(c, cfg)
	done := fmt.Sprintf("%d ops completed", res.Ops)
	if d.replicate {
		done += ", reads-your-writes held"
	}
	return exact(res.Err, res.Ops, cfg.Clients*cfg.OpsPerClient, "ops", done)
}

func chaosFTP(c *cluster.Cluster, bytes int) (bool, string) {
	if res := apps.RunFTP(c, bytes); res.Err != nil {
		return false, res.Err.Error()
	}
	if size, _ := c.Nodes[1].FS.Stat("copy.bin"); size != bytes {
		return false, fmt.Sprintf("file corrupted: %d of %d bytes", size, bytes)
	}
	return true, fmt.Sprintf("%d bytes intact", bytes)
}

const crashAt = 20 * sim.Millisecond

// chaosCrash kills the server mid-stream at crashAt and reports how long
// the surviving writer took to observe sock.ErrReset.
func chaosCrash(c *cluster.Cluster) (bool, string) {
	var wrErr error
	var errAt sim.Time
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, 80, 4)
		if err != nil {
			return
		}
		conn, err := l.Accept(p)
		for err == nil {
			_, _, err = conn.Read(p, 1<<20)
		}
	})
	c.Eng.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		conn, err := c.Nodes[1].Net.Dial(p, c.Addr(0), 80)
		wrErr = err
		for wrErr == nil {
			_, wrErr = conn.Write(p, 8<<10, nil)
			errAt = p.Now()
		}
	})
	c.Run(2 * sim.Second)
	detect := sim.Duration(errAt) - crashAt
	leaked := c.Nodes[1].Sub.ActiveSockets() + c.Nodes[1].Sub.EP.PrepostedDescriptors()
	switch {
	case wrErr != sock.ErrReset:
		return false, fmt.Sprintf("writer got %v, want reset", wrErr)
	case leaked != 0:
		return false, fmt.Sprintf("%d resources leaked after reset", leaked)
	}
	return true, fmt.Sprintf("reset %v after crash, no leaks", detect)
}

// judge passes a control run only if it failed the way it must.
func (ctl *chaosControl) judge(err error, got, want int) (bool, string) {
	switch {
	case err == nil && (ctl.want != nil || got == want):
		return false, ctl.bites
	case ctl.want != nil && !errors.Is(err, ctl.want):
		return false, fmt.Sprintf("failed with %v, want %v", err, ctl.want)
	case err != nil:
		return true, fmt.Sprintf("failed as it must without %s: %v", ctl.without, err)
	}
	return true, fmt.Sprintf("failed as it must without %s: %d of %d requests", ctl.without, got, want)
}

// fold reads the counter columns, applies the pass rules, and runs the
// resource audit: surviving a fault plan with a leak is still a failure.
// The columns and the pass rules read one cluster snapshot, taken
// before the audit's purge of stale unexpected-queue entries, whose
// doorbell a NIC fault plan may drop: the columns count what the
// workload did, not what the audit did.
func (d *chaosDomain) fold(c *cluster.Cluster, pt chaosPoint, r *ChaosRun) {
	snap := c.TelemetrySnapshot()
	r.snap = snap
	for _, col := range d.cols {
		r.Counters = append(r.Counters, snap.Sum(col.keys...))
	}
	if r.OK && r.Workload != "control" && d.sessions {
		if n := snap.Sum("session/failed"); n > 0 {
			r.OK, r.Detail = false, fmt.Sprintf("%d session(s) surfaced an error to the app", n)
		} else if why := d.pass(c, snap, pt); why != "" {
			r.OK, r.Detail = false, why
		}
	}
	rep, dumps := postRunAudit(c)
	for i, col := range d.cols {
		if col.keys == nil {
			r.Counters[i] = int64(len(rep.Findings))
		}
	}
	if !rep.Clean() {
		r.OK = false
		r.Detail += fmt.Sprintf("; %d audit finding(s): %s", len(rep.Findings), rep.Findings[0])
	}
	r.FlightDumps = dumps
}

// FprintChaos renders one domain's report, with the flight recordings of
// failed runs and of the crash scenario, whose reset is expected.
func FprintChaos(w io.Writer, rep ChaosReport) {
	d := rep.domain
	fmt.Fprintf(w, "=== %s ===\n%-8s  %-*s  %4s  %-4s", d.title, "workload", d.width, d.point, "seed", "ok")
	for _, col := range d.cols {
		fmt.Fprintf(w, "  %*s", col.width, col.header)
	}
	fmt.Fprintln(w, "  detail")
	ok := 0
	for _, r := range rep.Runs {
		status := "FAIL"
		if r.OK {
			status = "ok"
			ok++
		}
		fmt.Fprintf(w, "%-8s  %-*s  %4d  %-4s", r.Workload, d.width, r.Point, r.Seed, status)
		for i, col := range d.cols {
			fmt.Fprintf(w, "  %*d", col.width, r.Counters[i])
		}
		fmt.Fprintf(w, "  %s\n", r.Detail)
		if !r.OK || r.Workload == "crash" {
			for _, dump := range r.FlightDumps {
				telemetry.FprintDump(w, dump)
			}
		}
	}
	if d.faultTotals {
		total := func(keys ...string) (v int64) {
			for _, r := range rep.Runs {
				v += r.snap.Sum(keys...)
			}
			return v
		}
		fmt.Fprintf(w, "runs: %d/%d survived; injected totals: %s\n\n", ok, len(rep.Runs), cluster.FaultText(total))
	} else {
		fmt.Fprintf(w, "runs: %d/%d as expected\n\n", ok, len(rep.Runs))
	}
}

// points builds one point per name, each running apps.
func points(apps []string, names ...string) []chaosPoint {
	pts := make([]chaosPoint, len(names))
	for i, name := range names {
		pts[i] = chaosPoint{name: name, apps: apps}
	}
	return pts
}

var (
	sessionApps = []string{"web", "kvstore"}
	linkApps    = []string{"ftp", "kvstore", "web"}
	linkCrash   = chaosPoint{name: cluster.TransportSubstrate.String(), apps: []string{"crash"}, tr: cluster.TransportSubstrate}
	linkPoints  = []chaosPoint{
		{name: cluster.TransportSubstrate.String(), apps: linkApps, tr: cluster.TransportSubstrate},
		{name: cluster.TransportTCP.String(), apps: linkApps, tr: cluster.TransportTCP},
		linkCrash,
	}
)

var linkChaos = &chaosDomain{
	title: "chaos: workloads under randomized fault plans",
	point: "transport", width: 10,
	full:  chaosScale{points: linkPoints, reqs: 24, ops: 50, ftp: 4 << 20},
	quick: chaosScale{points: linkPoints, reqs: 24, ops: 20, ftp: 1 << 20},
	// A random plan over the workload's horizon, plus the crash.
	plan: func(_ chaosPoint, app string, seed uint64, nodes int) *faults.Plan {
		span := sim.Second
		if app == "ftp" {
			span = 2 * sim.Second
		}
		pl := faults.RandomPlan(seed, nodes, span)
		if app == "crash" {
			pl.Crashes = append(pl.Crashes, faults.CrashAt(0, crashAt))
		}
		return pl
	},
	// A link cluster is not a Failover cluster: each node runs exactly
	// one transport, so a column may sum the substrate's counter with the
	// kernel stack's and reads the one the run's transport feeds.
	cols: []chaosCol{
		// Recovery work: EMP retransmits on the substrate, TCP (fast)
		// retransmissions on the kernel stack.
		col("rexmits", 7, "emp/retransmits", "tcp/rexmits", "tcp/fast_rexmits"),
		// Corrupted frames rejected before any payload reached EMP or TCP
		// (NIC FCS check / stack checksum check).
		col("fcsdrops", 8, "nic/fcs_errors", "tcp/checksum_drops"),
		col("injected", 8, "switch/fault_drops", "switch/fault_partition_drops",
			"switch/fault_dups", "switch/fault_corruptions", "switch/fault_reorders"),
	},
	faultTotals: true,
}

// The flap of fabric address 0, the server's substrate port (node i has
// substrate 2i, TCP 2i+1), outlasts EMP's retry budget (~190 ms): a bare
// connection dies with sock.ErrReset, while a session's health watchdog
// fails over to the TCP standby within tens of milliseconds.
const (
	flapFrom = 5 * sim.Millisecond
	flapSpan = 100 * sim.Millisecond // seed-stable phase drawn in [0, span)
	flapDown = 250 * sim.Millisecond
	nicUntil = 400 * sim.Millisecond // end of the NIC fault windows
)

// nicClauses are each fault kind's NIC clauses, aimed at client node 1
// unless Any and layered on the link flap ("flap" runs it alone).
var nicClauses = map[string][]faults.NICClause{
	"doorbell":    {faults.DoorbellDrops(1, 0, nicUntil, 0.3)},
	"dma-stall":   {faults.DMAStalls(1, 0, nicUntil, 0.3, 200*sim.Microsecond)},
	"desc-flip":   {faults.DescFlips(1, 0, nicUntil, 0.2)},
	"credit-loss": {faults.LostCreditUpdates(1, 0, nicUntil, 0.5)},
	"wedge":       {faults.FirmwareWedge(1, 10*sim.Millisecond, 110*sim.Millisecond)},
	"mixed": {
		faults.DoorbellDrops(faults.Any, 0, nicUntil, 0.1),
		faults.DMAStalls(faults.Any, 0, nicUntil, 0.1, 200*sim.Microsecond),
		faults.DescFlips(faults.Any, 0, nicUntil, 0.05),
		faults.LostCreditUpdates(faults.Any, 0, nicUntil, 0.25),
		faults.FirmwareWedge(1, 10*sim.Millisecond, 110*sim.Millisecond),
	},
}

var nicPoints = points(sessionApps, "doorbell", "dma-stall", "desc-flip", "credit-loss", "wedge", "flap", "mixed")

var nicChaos = &chaosDomain{
	title: "chaos-nic: sessions under NIC faults and link flaps",
	point: "fault", width: 11,
	full:  chaosScale{points: nicPoints, reqs: 24, ops: 24},
	quick: chaosScale{points: nicPoints, reqs: 16, ops: 16},
	plan: func(pt chaosPoint, _ string, seed uint64, _ int) *faults.Plan {
		return &faults.Plan{Clauses: faults.FlapPhased(seed, 0, flapFrom, flapSpan, flapDown, 1), NIC: nicClauses[pt.name]}
	},
	cluster:  cluster.Config{Failover: true},
	sessions: true,
	pass: func(_ *cluster.Cluster, snap *telemetry.Snapshot, _ chaosPoint) string {
		if snap.Sum("session/reconnects", "session/failovers", "session/reattaches") == 0 {
			return "no reconnect or failover recorded — the plan never bit the session layer"
		}
		return ""
	},
	cols: []chaosCol{
		// NIC fault firings: doorbell, DMA, descriptor, UQ and wedge.
		col("injected", 8, "nic/doorbells_dropped", "nic/dma_stalls", "nic/desc_flips",
			"nic/uq_lost", "nic/wedge_stalls"),
		col("reconnect", 9, "session/reconnects"),
		col("failover", 9, "session/failovers"),
		col("reattach", 10, "session/reattaches"),
	},
	// Bare transports under the wedge+flap plan must fail.
	control: &chaosControl{
		point:   chaosPoint{name: "wedge"},
		without: "recovery",
		bites:   "completed without the session layer — the plan no longer bites",
	},
}

// fabricKillAt is when a fabric failure lands for good: past setup, plus
// a seed-stable phase across the clients' 8 ms think cycle, so most seeds
// catch frames in flight.
func fabricKillAt(seed uint64) sim.Duration {
	return 10*sim.Millisecond + sim.NewRand(seed^0xfab41c).Duration(0, 8*sim.Millisecond)
}

// fabricTopo is the fabric domain's 2x2 spine-leaf fabric, with a
// deliberately slow detector: live traffic dies on the dead element and
// retransmission must carry connections across it.
var fabricTopo = &cluster.Topology{Leaves: 2, Spines: 2, DetectDelay: 5 * sim.Millisecond}

// blackholeKeys names the fabric's no-route drops and the drops of each
// of t's trunks.
func blackholeKeys(t *cluster.Topology) []string {
	keys := []string{"fabric/route_drops"}
	for i := range t.Leaves * t.Spines {
		keys = append(keys, fmt.Sprintf("fabric/trunk%d_drops", i))
	}
	return keys
}

var fabricChaos = &chaosDomain{
	title: "chaos-fabric: single-failure survivability on a 2x2 spine-leaf fabric",
	point: "failure", width: 7,
	full:  chaosScale{points: points(sessionApps, "trunk0", "trunk1", "trunk2", "trunk3", "spine0", "spine1"), reqs: 24, ops: 24},
	quick: chaosScale{points: points(sessionApps, "trunk0", "spine1"), reqs: 16, ops: 16},
	// Trunk l*2+s joins leaf l to spine s; spines are switch ids 2 and 3.
	plan: func(pt chaosPoint, _ string, seed uint64, _ int) *faults.Plan {
		i := int(pt.name[len(pt.name)-1] - '0')
		if strings.HasPrefix(pt.name, "trunk") {
			return &faults.Plan{Links: []faults.LinkClause{faults.LinkDown(i, fabricKillAt(seed), 0)}}
		}
		return &faults.Plan{SwitchCrashes: []faults.SwitchCrash{faults.SwitchDown(2+i, fabricKillAt(seed))}}
	},
	cluster: cluster.Config{
		Failover: true,
		Topology: fabricTopo,
	},
	sessions: true,
	pass: func(_ *cluster.Cluster, snap *telemetry.Snapshot, _ chaosPoint) string {
		if snap.Sum("fabric/reroutes") == 0 {
			return "no reroute recorded — the failure never tripped the fabric's detector"
		}
		return ""
	},
	cols: []chaosCol{
		col("reroutes", 8, "fabric/reroutes"),
		// Frames dropped for want of a live route or on a dead trunk.
		col("blackholed", 10, blackholeKeys(fabricTopo)...),
		col("reconnect", 9, "session/reconnects"),
		col("failover", 8, "session/failovers"),
	},
	// A spine kill with rerouting frozen: flows hashed through the dead
	// spine blackhole until the transports' retry budgets run dry.
	control: &chaosControl{
		point:     chaosPoint{name: "spine0"},
		noReroute: true,
		without:   "reroute",
		bites:     "completed without rerouting — the failure no longer bites",
	},
}

// restartPlan reboots one host for 30 ms (long enough that keepalives
// declare its connections dead, short enough that reattaches land
// inside the reattach window), seed-phased across one think cycle.
func restartPlan(seed uint64, node int) *faults.Plan {
	return &faults.Plan{Restarts: []faults.Restart{
		faults.RestartPhased(seed, node, 10*sim.Millisecond, 8*sim.Millisecond, 30*sim.Millisecond),
	}}
}

// rebootNode maps a restart point to its node: web's server and the
// kvstore primary are 0, its backup 4, "client<i>" i.
func rebootNode(name string) int {
	switch name {
	case "server", "primary":
		return 0
	case "backup":
		return 4
	}
	return int(name[len(name)-1] - '0')
}

// A rebooted host comes back at the same address with a bumped
// incarnation; sessions resume committed streams against it.
var restartChaos = &chaosDomain{
	title: "chaos-restart: crash-restart recovery with listener resurrection",
	point: "target", width: 7,
	full: chaosScale{
		points: append(points([]string{"web"}, "server", "client1", "client2", "client3"),
			points([]string{"kvstore"}, "primary", "client1", "client2", "client3", "backup")...),
		reqs: 24, ops: 24,
	},
	quick: chaosScale{
		points: append(points([]string{"web"}, "server", "client1"), points([]string{"kvstore"}, "primary", "backup")...),
		reqs:   16, ops: 16,
	},
	plan: func(pt chaosPoint, _ string, seed uint64, _ int) *faults.Plan {
		return restartPlan(seed, rebootNode(pt.name))
	},
	cluster:   cluster.Config{Failover: true},
	sessions:  true,
	replicate: true,
	pass: func(c *cluster.Cluster, snap *telemetry.Snapshot, pt chaosPoint) string {
		client := strings.HasPrefix(pt.name, "client")
		switch inc := c.Nodes[rebootNode(pt.name)].Incarnation; {
		case inc != 2:
			return fmt.Sprintf("restarted node at incarnation %d, want 2", inc)
		case !client && snap.Sum("session/resumes_reborn") == 0:
			return "no session resumed against the reborn incarnation"
		case client && snap.Sum("session/reconnects") == 0:
			return "no session reconnected across the client reboot"
		}
		return ""
	},
	cols: []chaosCol{
		// Only a rebooted node publishes a node row, and one host reboots
		// once, so the sum is that host's incarnation.
		col("inc", 4, "node/incarnation"),
		col("reconnect", 9, "session/reconnects"),
		// Resumes accepted by a listener incarnation other than the one
		// that opened the stream, and rejected for want of committed state.
		col("reborn", 7, "session/resumes_reborn"),
		col("stale", 7, "session/resumes_stale"),
		{header: "leaks", width: 5},
	},
	// A client reboot without sessions: the raw transport connection
	// dies with the host and stays dead.
	control: &chaosControl{
		point:   chaosPoint{name: "client1"},
		without: "sessions",
		bites:   "completed without sessions — the reboot no longer bites",
		want:    sock.ErrReset,
	},
}

package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/telemetry"
)

// Descriptor-leak audit sweep (cmd/reproduce -audit): run every
// evaluation workload to completion on both transports, plus a connect
// flood that exercises the refusal path, and require the host-wide
// resource auditor to come back clean each time. This is the
// machine-checked form of the paper's Section 5.3 claim that every
// descriptor is either used or unposted, extended across connection
// churn, overload, and teardown.

// AuditRun is one workload execution followed by a full resource audit.
type AuditRun struct {
	Workload  string
	Transport cluster.Transport
	OK        bool
	Detail    string
	Report    *audit.Report
	// FlightDumps carries flight-recorder rings captured when the audit
	// found leaks (plus any reset-triggered dumps from the run itself).
	FlightDumps []telemetry.Dump
}

// postRunAudit purges residual control traffic from every live
// substrate and audits the cluster. Leak findings rarely name the guilty
// connection, so a finding captures every live flight ring as the
// failure artifact. It returns the report and every dump of the run.
func postRunAudit(c *cluster.Cluster) (*audit.Report, []telemetry.Dump) {
	for _, n := range c.Nodes {
		if n.Sub != nil && !n.Sub.Dead() {
			n.Sub.PurgeStale()
		}
	}
	rep := audit.Cluster(c)
	if !rep.Clean() {
		for _, n := range c.Nodes {
			n.Tel.DumpAllFlights("audit-leak")
		}
	}
	return rep, c.FlightDumps()
}

// auditAfter runs the post-run audit and fails r on any finding.
func auditAfter(c *cluster.Cluster, r *AuditRun) {
	r.Report, r.FlightDumps = postRunAudit(c)
	if !r.Report.Clean() {
		r.OK = false
		r.Detail += fmt.Sprintf("; %d finding(s)", len(r.Report.Findings))
	}
}

// AuditSweep runs the workload matrix and the overload flood, auditing
// each cluster at quiescence.
func AuditSweep(quick bool) []AuditRun {
	ftpBytes := 4 << 20
	matN := 128
	if quick {
		ftpBytes = 1 << 20
		matN = 64
	}
	var runs []AuditRun
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		{
			r := AuditRun{Workload: "ftp", Transport: tr, OK: true}
			c := cluster.New(cluster.Config{Nodes: 2, Transport: tr, Seed: 1})
			if res := apps.RunFTP(c, ftpBytes); res.Err != nil {
				r.OK, r.Detail = false, res.Err.Error()
			} else {
				r.Detail = fmt.Sprintf("%d bytes", ftpBytes)
			}
			auditAfter(c, &r)
			runs = append(runs, r)
		}
		{
			r := AuditRun{Workload: "web", Transport: tr, OK: true}
			c := cluster.New(cluster.Config{Nodes: 4, Transport: tr, Seed: 2})
			if res := apps.RunWeb(c, apps.DefaultWebConfig(1024, 8)); res.Err != nil {
				r.OK, r.Detail = false, res.Err.Error()
			} else {
				r.Detail = fmt.Sprintf("%d requests", res.Requests)
			}
			auditAfter(c, &r)
			runs = append(runs, r)
		}
		{
			r := AuditRun{Workload: "matmul", Transport: tr, OK: true}
			c := cluster.New(cluster.Config{Nodes: 4, Transport: tr, Seed: 3})
			if res := apps.RunMatmul(c, matN); res.Err != nil {
				r.OK, r.Detail = false, res.Err.Error()
			} else {
				r.Detail = fmt.Sprintf("N=%d", matN)
			}
			auditAfter(c, &r)
			runs = append(runs, r)
		}
	}
	runs = append(runs, auditFlood())
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		runs = append(runs, auditDrain(tr, quick))
	}
	return runs
}

// auditDrain is the teardown scenario of the matrix: a server holding
// live connections — every one mid-conversation with a blocked reader —
// is drained while late dialers keep arriving. The drain must terminate
// within its deadline, every late dial must resolve with a typed
// refusal, and the post-drain audit must come back clean.
func auditDrain(tr cluster.Transport, quick bool) AuditRun {
	r := AuditRun{Workload: "drain", Transport: tr, OK: true}
	conns := 32
	if quick {
		conns = 16
	}
	cfg := cluster.Config{Nodes: 3, Transport: tr, Seed: 5}
	if tr == cluster.TransportSubstrate {
		opts := core.DefaultOptions()
		opts.SyncConnect = true
		opts.DialRetries = 0
		cfg.Substrate = &opts
	}
	c := cluster.New(cfg)
	const port = 80
	accepted := 0
	var drainErr error
	drainDone := false
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, err := c.Nodes[0].Net.Listen(p, port, conns)
		if err != nil {
			r.OK, r.Detail = false, err.Error()
			return
		}
		for i := 0; i < conns; i++ {
			cn, err := l.Accept(p)
			if err != nil {
				break
			}
			accepted++
			c.Eng.Spawn("drain-handler", func(hp *sim.Proc) {
				for {
					n, _, err := cn.Read(hp, 64<<10)
					if err != nil || n == 0 {
						break
					}
				}
				cn.Close(hp)
			})
		}
	})
	for i := 0; i < conns; i++ {
		i := i
		c.Eng.Spawn("drain-client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+20*i) * sim.Microsecond)
			cn, err := c.Nodes[1+i%2].Net.Dial(p, c.Addr(0), port)
			if err != nil {
				return
			}
			cn.Write(p, 256, nil)
			// Block reading until the drain's shutdown delivers EOF.
			for {
				n, _, err := cn.Read(p, 64<<10)
				if err != nil || n == 0 {
					break
				}
			}
			cn.Close(p)
		})
	}
	c.Eng.Spawn("drainer", func(p *sim.Proc) {
		p.Sleep(20 * sim.Millisecond)
		drainErr = c.Nodes[0].Drain(p, p.Now().Add(100*sim.Millisecond))
		drainDone = true
	})
	lateRefused, lateBad := 0, 0
	c.Eng.Spawn("late-dialer", func(p *sim.Proc) {
		p.Sleep(25 * sim.Millisecond)
		for i := 0; i < 4; i++ {
			_, err := c.Nodes[2].Net.Dial(p, c.Addr(0), port)
			switch err {
			case sock.ErrRefused, sock.ErrTimeout, sock.ErrClosed:
				lateRefused++
			case nil:
				lateBad++
			default:
				lateBad++
			}
		}
	})
	c.Run(10 * sim.Second)
	switch {
	case accepted != conns:
		r.OK, r.Detail = false, fmt.Sprintf("%d/%d connections accepted", accepted, conns)
	case !drainDone:
		r.OK, r.Detail = false, "drain never completed"
	case drainErr != nil:
		r.OK, r.Detail = false, "drain: "+drainErr.Error()
	case lateBad > 0:
		r.OK, r.Detail = false, fmt.Sprintf("%d late dials resolved without a typed refusal", lateBad)
	default:
		r.Detail = fmt.Sprintf("%d conns drained, %d late dials refused", conns, lateRefused)
	}
	auditAfter(c, &r)
	return r
}

// auditFlood is the overload scenario: 128 synchronous dialers against a
// backlog-8 listener that never accepts. Every dialer must resolve with
// a typed error and the flood must leave no trace in any pool.
func auditFlood() AuditRun {
	r := AuditRun{Workload: "flood", Transport: cluster.TransportSubstrate, OK: true}
	opts := core.DefaultOptions()
	opts.SyncConnect = true
	opts.DialRetries = 0
	c := cluster.New(cluster.Config{
		Nodes:     5,
		Transport: cluster.TransportSubstrate,
		Substrate: &opts,
		Seed:      4,
	})
	resolved, refused, badErrs := 0, 0, 0
	var l sock.Listener
	c.Eng.Spawn("server", func(p *sim.Proc) {
		l, _ = c.Nodes[0].Net.Listen(p, 80, 8)
	})
	const total = 128
	for i := 0; i < total; i++ {
		i := i
		c.Eng.Spawn("dialer", func(p *sim.Proc) {
			p.Sleep(sim.Duration(10+3*i) * sim.Microsecond)
			_, err := c.Nodes[1+i%4].Net.Dial(p, c.Addr(0), 80)
			switch err {
			case sock.ErrRefused:
				refused++
			case sock.ErrTimeout:
			default:
				badErrs++
			}
			resolved++
		})
	}
	c.Eng.Spawn("teardown", func(p *sim.Proc) {
		for resolved < total {
			p.Sleep(sim.Millisecond)
		}
		if l != nil {
			l.Close(p)
		}
	})
	c.Run(10 * sim.Second)
	switch {
	case resolved != total:
		r.OK, r.Detail = false, fmt.Sprintf("%d/%d dialers resolved", resolved, total)
	case badErrs > 0:
		r.OK, r.Detail = false, fmt.Sprintf("%d dialers got undefined errors", badErrs)
	case refused == 0:
		r.OK, r.Detail = false, "refusal policy never fired"
	default:
		r.Detail = fmt.Sprintf("%d dialers: %d refused, %d timed out", total, refused, total-refused)
	}
	auditAfter(c, &r)
	return r
}

// FprintAudit renders the audit-sweep report.
func FprintAudit(w io.Writer, runs []AuditRun) {
	fmt.Fprintln(w, "=== audit: descriptor-leak sweep across workloads ===")
	fmt.Fprintf(w, "%-8s  %-10s  %-6s  %s\n", "workload", "transport", "audit", "detail")
	ok := 0
	for _, r := range runs {
		status := "LEAK"
		if r.OK {
			status = "clean"
			ok++
		}
		fmt.Fprintf(w, "%-8s  %-10s  %-6s  %s\n", r.Workload, r.Transport, status, r.Detail)
		if !r.Report.Clean() {
			for _, f := range r.Report.Findings {
				fmt.Fprintf(w, "    %s\n", f)
			}
			for _, d := range r.FlightDumps {
				telemetry.FprintDump(w, d)
			}
		}
	}
	fmt.Fprintf(w, "runs: %d/%d clean\n\n", ok, len(runs))
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// repResult is one repetition: the workload's report plus what the
// benchmark read from the cluster's public counters afterwards.
type repResult struct {
	repOut
	// hostS and setupS are the process CPU time of the measured call and
	// of the set-up before it.
	hostS, setupS float64
	// simEnd is the engine clock when the measured call returned,
	// including any idle tail after the workload finished.
	simEnd sim.Time
	// allocBytes and gcCycles are the Go heap's work during the call.
	allocBytes, gcCycles uint64
	// counters are the telemetry snapshot's counters by "layer/metric",
	// summed over nodes, plus the public counters outside the registry
	// under layers the registry does not use (nic, ethernet, kernel,
	// tcp/demux_*).
	counters map[string]int64
	// stageNs sums each latency stage over size classes, by path then
	// stage ("e2e" included); e2eCount counts each path's spans.
	stageNs  map[string]map[string]float64
	e2eCount map[string]int64
	// profile is the gzipped CPU profile of a traced call.
	profile []byte
}

// runRep sets up, runs and checks repetition rep. traced wraps the
// measured call in a CPU profile.
func runRep(w *workload, seed uint64, rep int, p params, traced bool, tr *tracer) (*repResult, error) {
	// Start every repetition from a collected heap, so one repetition's
	// garbage is not collected on the next one's clock.
	runtime.GC()
	endSetup := tr.hostSpan("setup")
	s0 := cpuTime()
	rg := w.setup(seed, rep, p, tr)
	setupS := (cpuTime() - s0).Seconds()
	endSetup()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start profile: %w", err)
		}
	}
	c0 := cpuTime()
	err := rg.call()
	c1 := cpuTime()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	r := &repResult{
		hostS:      (c1 - c0).Seconds(),
		setupS:     setupS,
		simEnd:     rg.c.Eng.Now(),
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   uint64(ms1.NumGC - ms0.NumGC),
		profile:    prof.Bytes(),
	}
	if err := rg.collect(&r.repOut); err != nil {
		return nil, err
	}
	defer tr.hostSpan("check")()
	if err := inspect(rg.c, r); err != nil {
		return nil, err
	}
	return r, nil
}

// inspect reads the cluster's counters, verifies the latency stage sums
// telescope, and audits every node for leaked resources.
func inspect(c *cluster.Cluster, r *repResult) error {
	snap := c.TelemetrySnapshot()
	r.counters = map[string]int64{}
	for _, m := range snap.Counters {
		if m.Conn == "" {
			r.counters[m.Layer+"/"+m.Metric] += m.Value
		}
	}
	if n := r.counters["session/failed"]; n > 0 {
		return fmt.Errorf("%d sessions failed", n)
	}
	if err := stageSums(snap, r); err != nil {
		return err
	}
	ctr := r.counters
	for i, n := range c.Nodes {
		if n.Sub != nil {
			nc := n.Sub.EP.NIC
			ctr["nic/tag_lookups"] += nc.TagLookups.Value
			ctr["nic/tag_walked"] += nc.TagWalked.Value
			ctr["nic/tx_frames"] += nc.TxFrames.Value
			ctr["nic/dma_bytes"] += nc.DMABytes.Value
		}
		if n.Stack != nil {
			l, p := n.Stack.DemuxStats()
			ctr["tcp/demux_lookups"] += l
			ctr["tcp/demux_probes"] += p
		}
		if i == 0 {
			// The server's link: its primary transport's switch port,
			// whichever direction carried more wire bytes.
			var port *ethernet.Port
			if n.Sub != nil {
				port = n.Sub.EP.NIC.Port()
			} else {
				port = n.Stack.Port()
			}
			ps := port.Stats()
			bytes := max(ps.TxBytes+ps.TxFrames*ethernet.PerFrameOverhead,
				ps.RxBytes+ps.RxFrames*ethernet.PerFrameOverhead)
			ctr["ethernet/server_link_bits"] = 8 * bytes
			cpu := n.Host.CPU()
			for k := 0; k < cpu.N(); k++ {
				ctr["kernel/server_busy_ns"] += int64(cpu.BusyTime(k))
			}
			ctr["kernel/server_core_ns"] = int64(cpu.N()) * int64(r.elapsed)
		}
	}
	ctr["ethernet/forwards"] = c.Switch.Forwards()
	for _, n := range c.Nodes {
		if n.Sub != nil && !n.Sub.Dead() {
			n.Sub.PurgeStale()
		}
	}
	if rep := audit.Cluster(c); !rep.Clean() {
		return fmt.Errorf("%s", rep)
	}
	return nil
}

// stageSums folds the latency-decomposition histograms ("path/size
// class/stage") into per-path stage totals, failing when a size class's
// stages do not add up to its end-to-end total, as
// bench.VerifyDecomposition requires, or when a reported path carries a
// stage this benchmark does not name.
func stageSums(snap *telemetry.Snapshot, r *repResult) error {
	r.stageNs = map[string]map[string]float64{}
	r.e2eCount = map[string]int64{}
	type class struct{ stages, e2e float64 }
	classes := map[string]*class{}
	for _, h := range snap.Hists {
		if h.Layer != "latency" {
			continue
		}
		parts := strings.SplitN(h.Metric, "/", 3)
		if len(parts) != 3 {
			continue
		}
		path, stage := parts[0], parts[2]
		cl := classes[path+"/"+parts[1]]
		if cl == nil {
			cl = &class{}
			classes[path+"/"+parts[1]] = cl
		}
		if stage == "e2e" {
			cl.e2e += h.Sum
			r.e2eCount[path] += h.Count
		} else {
			cl.stages += h.Sum
		}
		if r.stageNs[path] == nil {
			r.stageNs[path] = map[string]float64{}
		}
		r.stageNs[path][stage] += h.Sum
	}
	for key, cl := range classes {
		// Both sides are sums of integer nanoseconds; allow only float
		// rounding.
		if math.Abs(cl.stages-cl.e2e) > 1 {
			return fmt.Errorf("latency %s: stage sum %.0f ns != e2e %.0f ns", key, cl.stages, cl.e2e)
		}
	}
	for path, known := range map[string][]string{"eager": eagerStages, "tcp": tcpStages} {
		for stage := range r.stageNs[path] {
			if stage != "e2e" && !slices.Contains(known, stage) {
				return fmt.Errorf("latency %s: unnamed stage %q", path, stage)
			}
		}
	}
	return nil
}

// tally accumulates the R fixed repetitions whose simulated results are
// reported.
type tally struct {
	reps                 int
	ops                  int64
	elapsed              sim.Duration
	simEnd               sim.Duration
	hostS                float64
	payload              int64
	exact                []float64
	hist                 *telemetry.Histogram
	counters             map[string]int64
	uqPeak               int64
	stageNs              map[string]map[string]float64
	e2eCount             map[string]int64
	dial, write, read    spanSum
	allocBytes, gcCycles uint64
}

func newTally() *tally {
	return &tally{counters: map[string]int64{}, stageNs: map[string]map[string]float64{}, e2eCount: map[string]int64{}}
}

func (t *tally) add(r *repResult) {
	t.reps++
	t.ops += r.ops
	t.elapsed += r.elapsed
	t.simEnd += sim.Duration(r.simEnd)
	t.hostS += r.hostS
	t.payload += r.payload
	t.exact = append(t.exact, r.exact...)
	if r.hist != nil {
		if t.hist == nil {
			t.hist = telemetry.NewHistogram(r.hist.Bounds())
		}
		t.hist.Merge(r.hist)
	}
	for k, v := range r.counters {
		t.counters[k] += v
	}
	t.uqPeak = max(t.uqPeak, r.counters["emp/uq_peak_entries"])
	for path, stages := range r.stageNs {
		if t.stageNs[path] == nil {
			t.stageNs[path] = map[string]float64{}
		}
		for st, ns := range stages {
			t.stageNs[path][st] += ns
		}
	}
	for path, n := range r.e2eCount {
		t.e2eCount[path] += n
	}
	t.dial.merge(r.dial)
	t.write.merge(r.write)
	t.read.merge(r.read)
	t.allocBytes += r.allocBytes
	t.gcCycles += r.gcCycles
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics computes every metric the fixed repetitions determine: the
// simulated end-to-end metrics and the untraced per-layer metrics.
func (t *tally) metrics(vals map[string]float64) {
	ops := float64(t.ops)
	kops := ops / 1e3
	// simS is the simulated time the workload was active; engineS also
	// counts the idle tail the engine stepped through afterwards.
	simS, engineS := t.elapsed.Seconds(), t.simEnd.Seconds()
	ctr := func(k string) float64 { return float64(t.counters[k]) }

	if t.hist != nil {
		vals["sim_p50_us"] = histQuantile(t.hist, 0.50) / 1e3
		vals["sim_p99_us"] = histQuantile(t.hist, 0.99) / 1e3
	} else {
		vals["sim_p50_us"] = quantile(t.exact, 0.50) / 1e3
		vals["sim_p99_us"] = quantile(t.exact, 0.99) / 1e3
	}
	vals["sim_ops_per_s"] = ratio(ops, simS)
	vals["sim_mbps"] = ratio(float64(t.payload)*8/1e6, simS)

	vals["sim.wakeups_per_op"] = ratio(ctr("sim/wakeups"), ops)
	vals["sim.sim_s_per_host_s"] = ratio(engineS, t.hostS)
	vals["runtime.alloc_kb_per_op"] = ratio(float64(t.allocBytes)/1024, ops)
	vals["runtime.gc_cycles"] = ratio(float64(t.gcCycles), float64(t.reps))

	explicit, piggy := ctr("core/explicit_acks"), ctr("core/piggyback_acks")
	vals["core.msgs_per_op"] = ratio(ctr("core/msgs_sent"), ops)
	vals["core.explicit_acks_per_op"] = ratio(explicit, ops)
	vals["core.piggyback_ratio"] = ratio(piggy, piggy+explicit)
	vals["core.connects_per_kop"] = ratio(ctr("core/connects_sent"), kops)
	vals["core.credit_stalls_per_kop"] = ratio(ctr("core/credit_stalls"), kops)
	vals["core.keepalives_per_sim_s"] = ratio(ctr("core/keepalives_sent"), engineS)
	vals["core.credit_syncs"] = ratio(ctr("core/credit_syncs"), float64(t.reps))

	vals["emp.sends_per_op"] = ratio(ctr("emp/sends_posted"), ops)
	vals["emp.acks_per_op"] = ratio(ctr("emp/acks_sent"), ops)
	vals["emp.unexpected_ratio"] = ratio(ctr("emp/unexpected_hits"), ctr("emp/msgs_delivered"))
	vals["emp.retransmits_per_kop"] = ratio(ctr("emp/retransmits"), kops)
	vals["emp.uq_peak_entries"] = float64(t.uqPeak)

	vals["nic.tag_walk_mean"] = ratio(ctr("nic/tag_walked"), ctr("nic/tag_lookups"))
	vals["nic.tx_frames_per_op"] = ratio(ctr("nic/tx_frames"), ops)
	vals["nic.dma_kb_per_op"] = ratio(ctr("nic/dma_bytes")/1024, ops)

	vals["ethernet.forwards_per_op"] = ratio(ctr("ethernet/forwards"), ops)
	vals["ethernet.server_link_util"] = ratio(ctr("ethernet/server_link_bits")/ethernet.GigabitBps, engineS)

	vals["tcpip.segs_per_op"] = ratio(ctr("tcp/segs_out"), ops)
	vals["tcpip.rexmits_per_kop"] = ratio(ctr("tcp/rexmits"), kops)
	vals["tcpip.delayed_acks_per_op"] = ratio(ctr("tcp/delayed_acks"), ops)
	vals["tcpip.interrupts_per_op"] = ratio(ctr("tcp/interrupts"), ops)
	vals["tcpip.demux_probes_per_lookup"] = ratio(ctr("tcp/demux_probes"), ctr("tcp/demux_lookups"))

	vals["kernel.server_core_util"] = ratio(ctr("kernel/server_busy_ns"), ctr("kernel/server_core_ns"))

	vals["sock.poll_scanned_per_wait"] = ratio(ctr("poller/poll_scanned"), ctr("poller/poll_waits"))
	vals["sock.poll_delivered_per_wait"] = ratio(ctr("poller/poll_delivered"), ctr("poller/poll_waits"))
	vals["sock.session_reconnects"] = ratio(ctr("session/reconnects"), float64(t.reps))
	vals["sock.session_failed"] = ratio(ctr("session/failed"), float64(t.reps))
	vals["sock.dial_us"] = t.dial.meanUs()
	vals["sock.write_us"] = t.write.meanUs()
	vals["sock.read_us"] = t.read.meanUs()

	var workerEvents int64
	for k, v := range t.counters {
		if strings.HasPrefix(k, "apps/") && strings.Contains(k, "_worker") && strings.HasSuffix(k, "_events") {
			workerEvents += v
		}
	}
	vals["apps.worker_events_per_req"] = ratio(float64(workerEvents), ops)

	// Each stage's share of the end-to-end mean: its total over every
	// span of the path, divided by the path's span count, so the shares
	// add up to the e2e mean.
	for path, stages := range map[string][]string{"eager": eagerStages, "tcp": tcpStages} {
		n := float64(t.e2eCount[path])
		for _, st := range append(stages, "e2e") {
			vals[stageMetric(path, st)] = ratio(t.stageNs[path][st], n) / 1e3
		}
	}
}

// samples reports how many latency samples the percentiles rest on.
func (t *tally) samples() int64 {
	if t.hist != nil {
		return t.hist.Count()
	}
	return int64(len(t.exact))
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// histQuantile is quantile for a histogram's samples, each sample's
// value estimated by spreading its bucket's samples evenly up to the
// bucket's upper bound (bounds clamped to the observed min and max).
// Unlike Histogram.Percentile, which returns the sample at rank q*n, it
// interpolates between the two closest ranks, so the median of an even
// count lies between the middle two samples.
func histQuantile(h *telemetry.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	bounds, counts := h.Bounds(), h.Counts()
	// rank estimates the r-th smallest sample (1-based).
	rank := func(r int64) float64 {
		var cum int64
		for i, c := range counts {
			if cum+c < r {
				cum += c
				continue
			}
			lo, hi := h.Min(), h.Max()
			if i > 0 && bounds[i-1] > lo {
				lo = bounds[i-1]
			}
			if i < len(bounds) && bounds[i] < hi {
				hi = bounds[i]
			}
			return lo + float64(r-cum)/float64(c)*(hi-lo)
		}
		return h.Max()
	}
	pos := q * float64(n-1)
	r := int64(pos)
	a := rank(r + 1)
	if r+1 >= n {
		return a
	}
	return a + (pos-float64(r))*(rank(r+2)-a)
}

// cpuTime is the CPU time (user and system) the process has used, to
// the nanosecond. With GOMAXPROCS=1 an interval of it is the wall time
// the interval would take on an idle machine, without the time the OS
// gives other processes.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KB on Linux
}

// median of xs; 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// result is one workload's measurement, as a child process reports it.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Reps is R; HostReps counts every timed repetition, including the
	// extra ones run to fill the time budget.
	Reps      int      `json:"reps"`
	HostReps  int      `json:"host_reps"`
	Samples   int64    `json:"latency_samples"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Error     string   `json:"error,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload: its R fixed repetitions, then further
// timed repetitions (cycling through the same R seeds) up to the count
// the time budget buys, then, when traced, one profiled repetition of
// the first seed. Host metrics are medians over every timed repetition;
// simulated metrics come from the R fixed ones alone.
func measure(w *workload, seed uint64, p params, seconds float64, traced bool, tr *tracer) *result {
	res := &result{Workload: w.name, Seed: seed, Reps: p.reps}
	fail := func(what string, rseed uint64, err error) *result {
		res.Attempted += int64(p.ops)
		res.Failed++
		res.Error = fmt.Sprintf("%s (seed %d): %v", what, rseed, err)
		return res
	}
	reps := p.reps
	if p.repSeconds > 0 {
		reps = max(reps, int(math.Round(seconds/p.repSeconds)))
	}
	t := newTally()
	var hostS, setupS []float64
	for i := 0; i < reps; i++ {
		if tr != nil {
			tr.rep = i
		}
		end := tr.hostSpan("rep")
		r, err := runRep(w, seed+uint64(i%p.reps), i%p.reps, p, false, tr)
		end()
		if err != nil {
			return fail(fmt.Sprintf("rep %d", i), seed+uint64(i%p.reps), err)
		}
		res.Attempted += r.ops
		hostS = append(hostS, r.hostS)
		setupS = append(setupS, r.setupS)
		if i < p.reps {
			t.add(r)
		}
	}
	vals := map[string]float64{"host_s": median(hostS), "setup_s": median(setupS), "peak_rss_mb": peakRSSMB()}
	t.metrics(vals)
	if traced {
		if tr != nil {
			tr.rep, tr.sim = len(hostS), true
		}
		end := tr.hostSpan("rep (profiled)")
		r, err := runRep(w, seed, 0, p, true, tr)
		end()
		if err != nil {
			return fail("profiled rep", seed, err)
		}
		samples, err := parseProfile(r.profile)
		if err != nil {
			return fail("profiled rep", seed, err)
		}
		res.Attempted += r.ops
		attributeAll(samples).metrics(vals)
		vals["trace.overhead_ratio"] = ratio(r.hostS, vals["host_s"])
	}
	res.HostReps = len(hostS)
	res.Samples = t.samples()
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if s.traced && !traced {
			continue
		}
		res.Metrics = append(res.Metrics, metric{Name: s.Name, Value: vals[s.Name], Unit: s.Unit})
	}
	return res
}

package main

import "strings"

// spec declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (the consistency test
// holds the two together); the bounds live only there.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// host marks host-clock metrics. Every other metric is a pure
	// function of the seed, and the determinism test holds it to that.
	host bool
	// traced marks metrics only a profiled run (-trace 1) produces.
	traced bool
}

// endToEnd are the metrics a user of the simulator sees: what it costs
// to run (host clock) and what the modelled system achieves (simulated
// clock).
var endToEnd = []spec{
	{Name: "host_s", Unit: "s", Better: "lower", host: true},
	{Name: "setup_s", Unit: "s", Better: "lower", host: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", host: true},
	{Name: "sim_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim_p99_us", Unit: "us", Better: "lower"},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim_mbps", Unit: "Mbps", Better: "higher"},
}

// eagerStages and tcpStages are the latency-decomposition stages the
// substrate's eager path and kernel TCP stamp, in pipeline order. The
// eager path passes through "uq" only when a message arrives before its
// receive descriptor is posted.
var (
	eagerStages = []string{"write->post", "post->wire", "wire->match", "match->uq",
		"uq->deliver", "match->deliver", "deliver->stage", "stage->read"}
	tcpStages = []string{"write->wire", "wire->deliver", "deliver->read"}
)

// selfLayers are the repository packages host CPU time is attributed to,
// plus "bench" (this benchmark's own code) and "other" (any remaining
// internal package).
var selfLayers = []string{"sim", "ethernet", "nic", "emp", "core", "tcpip", "kernel",
	"sock", "fdtable", "ramfs", "stream", "apps", "telemetry", "cluster", "bench", "other"}

// perLayer lists every per-layer metric in print order.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	l := []spec{
		{Name: "sim.wakeups_per_op", Unit: "count/op", Better: "lower"},
		{Name: "sim.sim_s_per_host_s", Unit: "s/s", Better: "higher", host: true},
		{Name: "runtime.alloc_kb_per_op", Unit: "KB/op", Better: "lower", host: true},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", host: true},
		{Name: "core.msgs_per_op", Unit: "count/op", Better: "lower"},
		{Name: "core.explicit_acks_per_op", Unit: "count/op", Better: "lower"},
		{Name: "core.piggyback_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.connects_per_kop", Unit: "count/kop", Better: "lower"},
		{Name: "core.credit_stalls_per_kop", Unit: "count/kop", Better: "lower"},
		{Name: "core.keepalives_per_sim_s", Unit: "1/s", Better: "lower"},
		{Name: "core.credit_syncs", Unit: "count", Better: "lower"},
		{Name: "emp.sends_per_op", Unit: "count/op", Better: "lower"},
		{Name: "emp.acks_per_op", Unit: "count/op", Better: "lower"},
		{Name: "emp.unexpected_ratio", Unit: "ratio", Better: "lower"},
		{Name: "emp.retransmits_per_kop", Unit: "count/kop", Better: "lower"},
		{Name: "emp.uq_peak_entries", Unit: "count", Better: "lower"},
		{Name: "nic.tag_walk_mean", Unit: "count", Better: "lower"},
		{Name: "nic.tx_frames_per_op", Unit: "count/op", Better: "lower"},
		{Name: "nic.dma_kb_per_op", Unit: "KB/op", Better: "lower"},
		{Name: "ethernet.forwards_per_op", Unit: "count/op", Better: "lower"},
		{Name: "ethernet.server_link_util", Unit: "ratio", Better: "higher"},
		{Name: "tcpip.segs_per_op", Unit: "count/op", Better: "lower"},
		{Name: "tcpip.rexmits_per_kop", Unit: "count/kop", Better: "lower"},
		{Name: "tcpip.delayed_acks_per_op", Unit: "count/op", Better: "lower"},
		{Name: "tcpip.interrupts_per_op", Unit: "count/op", Better: "lower"},
		{Name: "tcpip.demux_probes_per_lookup", Unit: "count", Better: "lower"},
		{Name: "kernel.server_core_util", Unit: "ratio", Better: "lower"},
		{Name: "sock.poll_scanned_per_wait", Unit: "count", Better: "lower"},
		{Name: "sock.poll_delivered_per_wait", Unit: "count", Better: "higher"},
		{Name: "sock.session_reconnects", Unit: "count", Better: "lower"},
		{Name: "sock.session_failed", Unit: "count", Better: "lower"},
		{Name: "sock.dial_us", Unit: "us", Better: "lower"},
		{Name: "sock.write_us", Unit: "us", Better: "lower"},
		{Name: "sock.read_us", Unit: "us", Better: "lower"},
		{Name: "apps.worker_events_per_req", Unit: "count", Better: "lower"},
	}
	for _, st := range eagerStages {
		l = append(l, spec{Name: stageMetric("eager", st), Unit: "us", Better: "lower"})
	}
	l = append(l, spec{Name: stageMetric("eager", "e2e"), Unit: "us", Better: "lower"})
	for _, st := range tcpStages {
		l = append(l, spec{Name: stageMetric("tcp", st), Unit: "us", Better: "lower"})
	}
	l = append(l, spec{Name: stageMetric("tcp", "e2e"), Unit: "us", Better: "lower"})
	for _, layer := range selfLayers {
		l = append(l, spec{Name: layer + ".self_s", Unit: "s", Better: "lower", host: true, traced: true})
	}
	for _, layer := range selfLayers {
		if layer != "sim" {
			l = append(l, spec{Name: layer + ".owner_s", Unit: "s", Better: "lower", host: true, traced: true})
		}
	}
	for _, name := range []string{"sim.handoff_s", "sim.engine_s", "runtime.gc_s", "runtime.sched_s",
		"core.credit_sweep_s", "core.keepalive_s", "sock.session_watchdog_s", "trace.profile_s"} {
		l = append(l, spec{Name: name, Unit: "s", Better: "lower", host: true, traced: true})
	}
	return append(l, spec{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", host: true, traced: true})
}

// stageMetric names the per-op mean of one latency stage: "write->post"
// on the eager path becomes "latency.eager.write-post_us".
func stageMetric(path, stage string) string {
	return "latency." + path + "." + strings.ReplaceAll(stage, "->", "-") + "_us"
}

package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Hot-path latency decomposition (cmd/reproduce -metrics): the span
// marks stamped at every layer crossing (write enqueue, EMP descriptor
// post, wire emission, tag match, unexpected-queue park, completion,
// data-streaming stage, read wake) become per-stage histograms, one set
// per (path, size class). Because consecutive marks telescope, the
// per-stage sums reconstruct the end-to-end latency exactly — the same
// decomposition argument the paper uses to attribute its 37us DS_DA_UQ
// latency to individual substrate costs.

// stageStat summarizes one pipeline stage (or the end-to-end span) of a
// path's latency decomposition. Times are microseconds of virtual time.
type stageStat struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	SumNs  float64 `json:"sum_ns"`
}

// pathDecomposition is the full stage breakdown for one protocol path
// and message size class within one scenario.
type pathDecomposition struct {
	Scenario  string      `json:"scenario"`
	Path      string      `json:"path"`
	SizeClass string      `json:"size_class"`
	Stages    []stageStat `json:"stages"`
	E2E       stageStat   `json:"e2e"`
	// StageSumNs is the sum of the per-stage totals. The marks
	// telescope, so it must equal E2E.SumNs exactly (same int64
	// nanosecond values, added in a different order).
	StageSumNs float64 `json:"stage_sum_ns"`
}

// metricsReport is the -metrics deliverable: the decomposition table
// plus the merged cluster-wide telemetry snapshot of every scenario run.
type metricsReport struct {
	Decomp   []pathDecomposition `json:"decomposition"`
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

// stageRank orders decomposition stages by their position in the
// pipeline; stage names are "left->right" pairs of these marks.
var stageRank = map[string]int{
	"write":   0,
	"rendack": 1,
	"post":    2,
	"wire":    3,
	"match":   4,
	"uq":      5,
	"deliver": 6,
	"stage":   7,
	"read":    8,
}

func stageLess(a, b string) bool {
	ra, rb := stageKey(a), stageKey(b)
	if ra != rb {
		return ra < rb
	}
	return a < b
}

func stageKey(stage string) int {
	parts := strings.SplitN(stage, "->", 2)
	l, ok := stageRank[parts[0]]
	if !ok {
		l = 99
	}
	r := 0
	if len(parts) == 2 {
		if rr, ok := stageRank[parts[1]]; ok {
			r = rr
		} else {
			r = 99
		}
	}
	return l*100 + r
}

// decompose extracts the latency-layer histograms of one scenario's
// snapshot into ordered per-path decompositions.
func decompose(scenario string, snap *telemetry.Snapshot) []pathDecomposition {
	type group struct {
		path, size string
		stages     []stageStat
		e2e        stageStat
	}
	groups := map[string]*group{}
	var order []string
	for _, h := range snap.Hists {
		if h.Layer != "latency" {
			continue
		}
		// Metric is "path/sizeclass/stage".
		parts := strings.SplitN(h.Metric, "/", 3)
		if len(parts) != 3 {
			continue
		}
		gk := parts[0] + "/" + parts[1]
		g := groups[gk]
		if g == nil {
			g = &group{path: parts[0], size: parts[1]}
			groups[gk] = g
			order = append(order, gk)
		}
		st := stageStat{
			Stage:  parts[2],
			Count:  h.Count,
			MeanUs: h.Sum / float64(h.Count) / 1e3,
			P50Us:  h.P50 / 1e3,
			P99Us:  h.P99 / 1e3,
			SumNs:  h.Sum,
		}
		if parts[2] == "e2e" {
			g.e2e = st
		} else {
			g.stages = append(g.stages, st)
		}
	}
	sort.Strings(order)
	var out []pathDecomposition
	for _, gk := range order {
		g := groups[gk]
		sort.Slice(g.stages, func(i, j int) bool { return stageLess(g.stages[i].Stage, g.stages[j].Stage) })
		d := pathDecomposition{
			Scenario:  scenario,
			Path:      g.path,
			SizeClass: g.size,
			Stages:    g.stages,
			E2E:       g.e2e,
		}
		for _, st := range g.stages {
			d.StageSumNs += st.SumNs
		}
		out = append(out, d)
	}
	return out
}

// metricsSizes are the pingpong message sizes, one per span size class.
func metricsSizes(quick bool) []int {
	if quick {
		return []int{64, 1024}
	}
	return []int{64, 1024, 16 << 10}
}

// RunMetrics runs the decomposition scenarios — eager data streaming,
// forced rendezvous, and kernel TCP — and returns the report. Every
// cluster is seeded, so the report is deterministic byte for byte.
func RunMetrics(quick bool) metricsReport {
	rendOpts := func() *core.Options {
		o := core.DatagramOptions()
		o.ForceRendezvous = true
		return &o
	}
	scenarios := []struct {
		name  string
		build func() *cluster.Cluster
	}{
		{"substrate-ds", func() *cluster.Cluster {
			return cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Substrate: dsDAUQ(), Seed: 1})
		}},
		{"substrate-rend", func() *cluster.Cluster {
			return cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Substrate: rendOpts(), Seed: 1})
		}},
		{"tcp", func() *cluster.Cluster {
			return cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportTCP, Seed: 1})
		}},
	}
	rep := metricsReport{}
	global := telemetry.New()
	for _, sc := range scenarios {
		for _, n := range metricsSizes(quick) {
			c := sc.build()
			sockPingPong(c, n, latencyIters)
			agg := c.TelemetryAggregate()
			rep.Decomp = append(rep.Decomp, decompose(sc.name, agg.Snapshot())...)
			global.Merge(agg)
		}
	}
	rep.Snapshot = global.Snapshot()
	return rep
}

// VerifyDecomposition checks the telescoping invariant: within each
// (scenario, path, size class), the per-stage sums must reconstruct the
// end-to-end latency within floating-point rounding.
func VerifyDecomposition(rep metricsReport) error {
	for _, d := range rep.Decomp {
		if d.E2E.Count == 0 {
			return fmt.Errorf("metrics: %s %s/%s has no end-to-end spans", d.Scenario, d.Path, d.SizeClass)
		}
		delta := d.StageSumNs - d.E2E.SumNs
		if delta < 0 {
			delta = -delta
		}
		// Both sides are sums of int64 nanosecond marks; allow only
		// float64 rounding headroom.
		if delta > 1 {
			return fmt.Errorf("metrics: %s %s/%s stage sum %.0fns != e2e %.0fns",
				d.Scenario, d.Path, d.SizeClass, d.StageSumNs, d.E2E.SumNs)
		}
	}
	if len(rep.Decomp) == 0 {
		return fmt.Errorf("metrics: no decompositions recorded")
	}
	return nil
}

// FprintMetrics renders the decomposition as a paper-style table.
func FprintMetrics(w io.Writer, rep metricsReport) {
	fmt.Fprintln(w, "=== metrics: hot-path latency decomposition (one-way, us) ===")
	fmt.Fprintf(w, "%-14s  %-6s  %-5s  %-16s  %6s  %8s  %8s  %8s\n",
		"scenario", "path", "size", "stage", "count", "mean", "p50", "p99")
	for _, d := range rep.Decomp {
		for _, st := range d.Stages {
			fmt.Fprintf(w, "%-14s  %-6s  %-5s  %-16s  %6d  %8.2f  %8.2f  %8.2f\n",
				d.Scenario, d.Path, d.SizeClass, st.Stage, st.Count, st.MeanUs, st.P50Us, st.P99Us)
		}
		check := "ok"
		if err := VerifyDecomposition(metricsReport{Decomp: []pathDecomposition{d}}); err != nil {
			check = "MISMATCH"
		}
		fmt.Fprintf(w, "%-14s  %-6s  %-5s  %-16s  %6d  %8.2f  %8.2f  %8.2f  (stage sum %s)\n",
			d.Scenario, d.Path, d.SizeClass, "e2e", d.E2E.Count, d.E2E.MeanUs, d.E2E.P50Us, d.E2E.P99Us, check)
	}
	fmt.Fprintln(w)
}

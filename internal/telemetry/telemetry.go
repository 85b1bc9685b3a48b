// Package telemetry is the host-scoped observability layer: a registry
// of counters and fixed-bucket histograms keyed by
// layer/metric/connection, latency-decomposition spans stamped at layer
// crossings, and per-connection flight recorders dumped when a
// connection dies unexpectedly.
//
// Every node owns one registry, and every layer on the node is built
// with it: the substrate, the TCP stack and the session layer take it
// at construction and register their sources there, and the cluster
// adds its fabric and switch counters when it aggregates. There is no
// "telemetry off" mode. The registry is deliberately passive: it never
// schedules events and never charges simulated time, so recording
// changes no timing.
package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Key identifies one metric within a registry. Conn is empty for
// host-wide metrics and carries the connection id for per-connection
// ones.
type Key struct {
	Layer  string
	Metric string
	Conn   string
}

func keyLess(a, b Key) bool {
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	return a.Conn < b.Conn
}

// Stat is one named value pulled from a source at snapshot time. A
// layer stays the owner of its counters and the registry reads through,
// so nothing is double-counted: most stats come from the layer's tagged
// fields (Fields), the rest from method calls (live table sizes,
// per-core and per-trunk series).
type Stat struct {
	Name  string
	Value int64
}

var counterType = reflect.TypeOf(sim.Counter{})

// Fields reads the metrics a struct declares, in declaration order:
// every field tagged `metric:"name"`, either a sim.Counter (its Value)
// or an integer. Unexported fields are read too, so a layer can publish
// a private level without an accessor; untagged fields are skipped. v
// must be a pointer to a struct, and a tagged field of any other type
// panics: both are programming errors. Reflection runs only when a
// snapshot is taken, never on the paths that increment.
func Fields(v any) []Stat {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("telemetry.Fields: %T is not a pointer to a struct", v))
	}
	rv = rv.Elem()
	rt := rv.Type()
	var out []Stat
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		fv := rv.Field(i)
		if f.Type == counterType {
			fv = fv.Field(0)
		}
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out = append(out, Stat{Name: name, Value: fv.Int()})
		default:
			panic(fmt.Sprintf("telemetry.Fields: %T.%s is %s, not a counter or integer", v, f.Name, f.Type))
		}
	}
	return out
}

type source struct {
	layer string
	fn    func() []Stat
}

// Registry is the per-host metric store. The zero value is not usable;
// call New.
type Registry struct {
	counters map[Key]*sim.Counter
	hists    map[Key]*Histogram
	sources  []source

	spanHists map[spanKey]*Histogram // RecordSpan's view of hists; made on first use

	flights map[string]*Recorder
	// oldest and newest end the live recorders' recency list; the oldest
	// is evicted first.
	oldest, newest *Recorder
	dumps          []Dump
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[Key]*sim.Counter),
		hists:    make(map[Key]*Histogram),
		flights:  make(map[string]*Recorder),
	}
}

// Counter returns the counter for (layer, metric), creating it on first
// use.
func (r *Registry) Counter(layer, metric string) *sim.Counter {
	k := Key{Layer: layer, Metric: metric}
	c := r.counters[k]
	if c == nil {
		c = &sim.Counter{}
		r.counters[k] = c
	}
	return c
}

// Histogram returns the histogram for (layer, metric), creating it with
// the given bucket bounds on first use (later calls reuse the existing
// bounds). The histogram shares bounds, which must not change after.
func (r *Registry) Histogram(layer, metric string, bounds []float64) *Histogram {
	k := Key{Layer: layer, Metric: metric}
	h := r.hists[k]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// ReplaceSource registers a pull-through stat source under the given
// layer name, first removing any source already registered under that
// layer. fn runs at Snapshot time and must return stats in a
// deterministic order. Each layer registers once per node and
// incarnation: a host rebuilt after a crash–restart re-registers, and
// the reborn incarnation's stats replace the dead one's rather than
// adding to them. Merge appends sources, so a cluster-wide registry
// sums the nodes' layers.
func (r *Registry) ReplaceSource(layer string, fn func() []Stat) {
	kept := r.sources[:0]
	for _, src := range r.sources {
		if src.layer != layer {
			kept = append(kept, src)
		}
	}
	r.sources = append(kept, source{layer: layer, fn: fn})
}

// MetricSnap is one counter in a snapshot.
type MetricSnap struct {
	Layer  string `json:"layer"`
	Metric string `json:"metric"`
	Conn   string `json:"conn,omitempty"`
	Value  int64  `json:"value"`
}

// HistSnap is one histogram in a snapshot. Quantiles are interpolated;
// Counts has one extra trailing bucket for observations above the last
// bound.
type HistSnap struct {
	Layer  string    `json:"layer"`
	Metric string    `json:"metric"`
	Conn   string    `json:"conn,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is the full, deterministic state of a registry: every series
// sorted by (layer, metric, conn), source stats folded in as counters.
type Snapshot struct {
	Counters []MetricSnap `json:"counters"`
	Hists    []HistSnap   `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Same seed, same workload — same
// snapshot, byte for byte, because every series is emitted in sorted
// key order and sources run in registration order.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: []MetricSnap{}}
	merged := make(map[Key]int64, len(r.counters))
	for k, c := range r.counters {
		merged[k] = c.Value
	}
	for _, src := range r.sources {
		for _, st := range src.fn() {
			merged[Key{Layer: src.layer, Metric: st.Name}] += st.Value
		}
	}
	keys := make([]Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for _, k := range keys {
		s.Counters = append(s.Counters, MetricSnap{Layer: k.Layer, Metric: k.Metric, Conn: k.Conn, Value: merged[k]})
	}

	hkeys := make([]Key, 0, len(r.hists))
	for k := range r.hists {
		hkeys = append(hkeys, k)
	}
	sort.Slice(hkeys, func(i, j int) bool { return keyLess(hkeys[i], hkeys[j]) })
	for _, k := range hkeys {
		h := r.hists[k]
		s.Hists = append(s.Hists, HistSnap{
			Layer: k.Layer, Metric: k.Metric, Conn: k.Conn,
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			P50: h.Percentile(50), P99: h.Percentile(99),
			Bounds: h.Bounds(), Counts: h.Counts(),
		})
	}
	return s
}

// Sum adds up the host-wide counters named by keys, each "layer/metric";
// a key the snapshot lacks counts zero.
func (s *Snapshot) Sum(keys ...string) int64 {
	var v int64
	for _, k := range keys {
		layer, metric, _ := strings.Cut(k, "/")
		for _, m := range s.Counters {
			if m.Layer == layer && m.Metric == metric && m.Conn == "" {
				v += m.Value
			}
		}
	}
	return v
}

// Merge folds other's counters, sources, histograms, and flight dumps
// into r (cross-node aggregation for cluster-wide reports). Histograms
// merge bucket-wise; mismatched bounds are skipped.
func (r *Registry) Merge(other *Registry) {
	for k, c := range other.counters {
		rc := r.counters[k]
		if rc == nil {
			rc = &sim.Counter{}
			r.counters[k] = rc
		}
		rc.Add(c.Value)
	}
	for k, h := range other.hists {
		rh := r.hists[k]
		if rh == nil {
			rh = NewHistogram(h.bounds)
			r.hists[k] = rh
		}
		rh.Merge(h)
	}
	r.dumps = append(r.dumps, other.dumps...)
	if len(r.dumps) > maxDumps {
		r.dumps = r.dumps[:maxDumps]
	}
	r.sources = append(r.sources, other.sources...)
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zeroed: count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	if p := h.Percentile(50); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
	if p := h.Percentile(99); p != 0 {
		t.Fatalf("empty p99 = %v, want 0", p)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	h.Observe(42)
	if h.Count() != 1 || h.Sum() != 42 || h.Min() != 42 || h.Max() != 42 {
		t.Fatalf("single value stats wrong: %+v", h)
	}
	// Percentiles clamp to the observed range, so one value reports
	// itself exactly at every percentile.
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("p%v = %v, want 42", p, got)
		}
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	// No explicit bounds: everything lands in the overflow bucket, and
	// the histogram still works as a bounded accumulator.
	h := NewHistogram(nil)
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10 || h.Sum() != 55 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	if c := h.Counts(); len(c) != 1 || c[0] != 10 {
		t.Fatalf("counts = %v, want [10]", c)
	}
	if p := h.Percentile(100); p != 10 {
		t.Fatalf("p100 = %v, want max 10", p)
	}
	if p := h.Percentile(50); p < 1 || p > 10 {
		t.Fatalf("p50 = %v out of observed range", p)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(1e9) // far beyond the last bound
	c := h.Counts()
	if len(c) != 3 || c[0] != 1 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("counts = %v, want [1 1 1]", c)
	}
	if h.Max() != 1e9 {
		t.Fatalf("max = %v", h.Max())
	}
	// The overflow bucket interpolates between the last bound and the
	// observed max, so percentiles stay finite.
	if p := h.Percentile(99); p <= 20 || p > 1e9 {
		t.Fatalf("p99 = %v, want in (20, 1e9]", p)
	}
}

func TestHistogramPercentileInterpolation(t *testing.T) {
	// 100 observations spread uniformly over one bucket (0, 100]:
	// linear interpolation should land p50 near the bucket midpoint.
	h := NewHistogram([]float64{100, 200})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	p50 := h.Percentile(50)
	if math.Abs(p50-50) > 2 {
		t.Fatalf("p50 = %v, want ~50", p50)
	}
	p90 := h.Percentile(90)
	if math.Abs(p90-90) > 2 {
		t.Fatalf("p90 = %v, want ~90", p90)
	}
	if h.Percentile(100) != 100 {
		t.Fatalf("p100 = %v, want 100", h.Percentile(100))
	}
	// Bucket boundaries: exactly at a bound stays in the lower bucket.
	h2 := NewHistogram([]float64{10})
	h2.Observe(10)
	if c := h2.Counts(); c[0] != 1 || c[1] != 0 {
		t.Fatalf("bound-inclusive bucketing broken: %v", c)
	}
}

// fineBounds is a 48,209-bound table built the way the benchmark builds
// its kv-failover latency buckets: 10% steps from 1 µs to 90 µs, then
// 50 ppm steps up to 1 ms.
func fineBounds() []float64 {
	var b []float64
	for v := 1e3; v < 9e4; v *= 1.1 {
		b = append(b, v)
	}
	for v := 9e4; v < 1e6; v *= 1 + 5e-5 {
		b = append(b, v)
	}
	return b
}

// TestHistogramObserveMatchesLinearScan checks Observe's bucket against
// a linear scan for the first bound >= v (the overflow bucket if there
// is none): at every bound and one ulp either side of it, below the
// first bound, above the last, and for NaN, which the scan leaves in
// bucket 0.
func TestHistogramObserveMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds []float64
	}{
		{"latency", LatencyBounds()},
		{"fine", fineBounds()},
		{"duplicates", []float64{1, 2, 2, 2, 3, 5, 5}},
		{"empty", nil},
	} {
		vals := []float64{math.Inf(-1), -1, 0, math.Inf(1)}
		for _, b := range tc.bounds {
			vals = append(vals, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
		}
		if n := len(tc.bounds); n > 0 {
			vals = append(vals, tc.bounds[0]-1, tc.bounds[n-1]+1)
		}
		slices.Sort(vals)
		h := NewHistogram(tc.bounds)
		want := 0
		for _, v := range vals {
			// The scan's answer never falls as v grows, so over
			// ascending values it resumes where the last one stopped.
			for want < len(tc.bounds) && v > tc.bounds[want] {
				want++
			}
			before := h.counts[want]
			h.Observe(v)
			if h.counts[want] != before+1 {
				t.Fatalf("%s: Observe(%v) missed bucket %d of %d bounds", tc.name, v, want, len(tc.bounds))
			}
		}
		before := h.counts[0]
		h.Observe(math.NaN())
		if h.counts[0] != before+1 {
			t.Fatalf("%s: Observe(NaN) missed bucket 0", tc.name)
		}
	}
	if n := len(fineBounds()); n != 48209 {
		t.Fatalf("fine table has %d bounds, want 48209", n)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{10, 100})
	b := NewHistogram([]float64{10, 100})
	a.Observe(5)
	a.Observe(50)
	b.Observe(500)
	if !a.Merge(b) {
		t.Fatal("merge of identical bounds failed")
	}
	if a.Count() != 3 || a.Sum() != 555 || a.Min() != 5 || a.Max() != 500 {
		t.Fatalf("merged stats wrong: count=%d sum=%v min=%v max=%v", a.Count(), a.Sum(), a.Min(), a.Max())
	}
	if c := a.Counts(); c[0] != 1 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("merged counts = %v", c)
	}
	// Mismatched bounds refuse to merge and leave the target intact.
	c := NewHistogram([]float64{1, 2, 3})
	if c.Merge(a) {
		t.Fatal("merge across different bounds should fail")
	}
	if c.Count() != 0 {
		t.Fatal("failed merge mutated the target")
	}
	// Merging an empty histogram into an empty one keeps both empty.
	d := NewHistogram([]float64{10, 100})
	e := NewHistogram([]float64{10, 100})
	if !d.Merge(e) || d.Count() != 0 {
		t.Fatalf("empty merge broke: count=%d", d.Count())
	}
}

func TestSpanStageSumsMatchEndToEnd(t *testing.T) {
	r := New()
	s := r.NewSpan("eager", 512, "write", 100)
	s.Mark("post", 250)
	s.Mark("wire", 1000)
	s.MarkOnce("wire", 2000) // retransmission must not re-mark
	s.Mark("deliver", 4000)
	s.Mark("read", 5000)
	r.RecordSpan(s)
	snap := r.Snapshot()
	var stageSum, e2e float64
	for _, h := range snap.Hists {
		if h.Metric == "eager/1KB/e2e" {
			e2e = h.Sum
		} else {
			stageSum += h.Sum
		}
	}
	if e2e != 4900 {
		t.Fatalf("e2e sum = %v, want 4900", e2e)
	}
	if stageSum != e2e {
		t.Fatalf("stage sums %v != e2e %v", stageSum, e2e)
	}
}

func TestFlightRingWrapAndLRU(t *testing.T) {
	r := New()
	rec := r.Flight("a")
	for i := 0; i < flightCap+5; i++ {
		rec.Recordf(sim.Time(i), "ev", "n=%d", i)
	}
	evs := rec.Events()
	if len(evs) != flightCap {
		t.Fatalf("ring holds %d events, want %d", len(evs), flightCap)
	}
	if evs[0].At != 5 || evs[len(evs)-1].At != sim.Time(flightCap+4) {
		t.Fatalf("ring order wrong: first=%v last=%v", evs[0].At, evs[len(evs)-1].At)
	}
	if rec.Total() != int64(flightCap+5) {
		t.Fatalf("total = %d", rec.Total())
	}
	// Churn past the LRU bound: the oldest untouched recorder is gone,
	// a touched one survives.
	for i := 0; i < maxFlights; i++ {
		r.Flight(fmt.Sprintf("conn-%03d", i)).Record(0, "connect", "")
		r.Flight("a").Record(0, "keep", "") // keep "a" hot
	}
	if _, ok := r.flights["a"]; !ok {
		t.Fatal("hot recorder evicted")
	}
	if len(r.flights) > maxFlights {
		t.Fatalf("%d live recorders, cap %d", len(r.flights), maxFlights)
	}
	if _, ok := r.flights["conn-000"]; ok {
		t.Fatal("LRU eviction did not discard the cold recorder")
	}
}

// sliceLRU is the flight registry's original recency bookkeeping: ids
// least recently used first, a hit moved to the back, the front evicted
// once more than maxFlights are live. The linked list must evict exactly
// as it did, because the live set decides which rings a dump prints.
type sliceLRU []string

// lookup records a Flight(id) call and returns the id it evicts, if any.
func (l *sliceLRU) lookup(id string) (evicted string) {
	for i, x := range *l {
		if x == id {
			*l = append(append((*l)[:i:i], (*l)[i+1:]...), id)
			return ""
		}
	}
	*l = append(*l, id)
	if len(*l) > maxFlights {
		evicted = (*l)[0]
		*l = (*l)[1:]
	}
	return evicted
}

func TestFlightLRUMatchesSliceOrder(t *testing.T) {
	r := New()
	var ref sliceLRU
	rng := sim.NewRand(7)
	for step := 0; step < 5000; step++ {
		// A hot set that mostly hits plus a long tail that churns.
		n := 2 * maxFlights
		if rng.Bool(0.3) {
			n = 8 * maxFlights
		}
		id := fmt.Sprintf("c%d", rng.Intn(n))
		r.Flight(id)
		if evicted := ref.lookup(id); evicted != "" && r.flights[evicted] != nil {
			t.Fatalf("step %d: reference evicted %s, registry kept it", step, evicted)
		}
		var order []string
		for rec := r.oldest; rec != nil; rec = rec.newer {
			order = append(order, rec.id)
		}
		if fmt.Sprint(order) != fmt.Sprint([]string(ref)) {
			t.Fatalf("step %d: recency order %v, reference %v", step, order, ref)
		}
	}
}

func TestFlightHitAllocatesNothing(t *testing.T) {
	r := New()
	for i := 0; i < maxFlights; i++ {
		r.Flight(fmt.Sprintf("c%d", i))
	}
	id := "c3"
	if n := testing.AllocsPerRun(100, func() { r.Flight(id) }); n != 0 {
		t.Fatalf("a hitting Flight lookup allocates %v times", n)
	}
}

func TestRecordSpanAllocatesNothing(t *testing.T) {
	r := New()
	sp := r.NewSpan("eager", 64, "write", 0)
	sp.Mark("post", 10)
	sp.Mark("read", 30)
	r.RecordSpan(sp) // registers the three histograms
	if n := testing.AllocsPerRun(100, func() { r.RecordSpan(sp) }); n != 0 {
		t.Fatalf("RecordSpan allocates %v times once its histograms exist", n)
	}
	if h := r.Histogram("latency", "eager/64B/write->post", nil); h.Count() != 102 {
		t.Fatalf("stage histogram holds %d observations, want 102", h.Count())
	}
}

func TestDumpCapture(t *testing.T) {
	r := New()
	r.Flight("x").Record(10, "connect", "ok")
	r.Flight("x").Record(20, "retransmit", "seq=3")
	d := r.DumpFlight("x", "reset")
	if d == nil || len(d.Events) != 2 || d.Reason != "reset" {
		t.Fatalf("dump = %+v", d)
	}
	if r.DumpFlight("unknown", "reset") != nil {
		t.Fatal("dump of unknown conn should be nil")
	}
	if got := len(r.Dumps()); got != 1 {
		t.Fatalf("retained dumps = %d", got)
	}
	// The dump cap holds.
	for i := 0; i < maxDumps+8; i++ {
		id := fmt.Sprintf("y%02d", i)
		r.Flight(id).Record(0, "connect", "")
		r.DumpFlight(id, "audit")
	}
	if got := len(r.Dumps()); got != maxDumps {
		t.Fatalf("dump cap broken: %d", got)
	}
	var buf bytes.Buffer
	FprintDump(&buf, *d)
	if buf.Len() == 0 {
		t.Fatal("FprintDump wrote nothing")
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := New()
		// Insert in one order here; map iteration would scramble it if
		// Snapshot didn't sort.
		r.Counter("core", "msgs_sent").Add(5)
		r.Counter("emp", "retransmits").Add(2)
		r.Counter("core", "credit_stalls").Inc()
		r.Histogram("latency", "eager/64B/e2e", LatencyBounds()).Observe(12e3)
		r.ReplaceSource("sim", func() []Stat { return []Stat{{Name: "wakeups", Value: 17}} })
		return r
	}
	a, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n---\n%s", a, b)
	}
	snap := build().Snapshot()
	if len(snap.Counters) != 4 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	// Sorted by layer then metric, sources folded in.
	order := []string{"core/credit_stalls", "core/msgs_sent", "emp/retransmits", "sim/wakeups"}
	for i, want := range order {
		got := snap.Counters[i].Layer + "/" + snap.Counters[i].Metric
		if got != want {
			t.Fatalf("counter %d = %s, want %s", i, got, want)
		}
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("core", "msgs_sent").Add(3)
	b.Counter("core", "msgs_sent").Add(4)
	b.Counter("tcp", "segs_in").Add(9)
	a.Histogram("latency", "tcp/1KB/e2e", LatencyBounds()).Observe(1000)
	b.Histogram("latency", "tcp/1KB/e2e", LatencyBounds()).Observe(3000)
	b.Flight("n1:5000-n0:80").Record(5, "reset", "peer gone")
	b.DumpFlight("n1:5000-n0:80", "reset")
	a.Merge(b)
	snap := a.Snapshot()
	byKey := map[string]int64{}
	for _, c := range snap.Counters {
		byKey[c.Layer+"/"+c.Metric] = c.Value
	}
	if byKey["core/msgs_sent"] != 7 || byKey["tcp/segs_in"] != 9 {
		t.Fatalf("merged counters = %v", byKey)
	}
	for _, h := range snap.Hists {
		if h.Metric == "tcp/1KB/e2e" && (h.Count != 2 || h.Sum != 4000) {
			t.Fatalf("merged hist = %+v", h)
		}
	}
	if len(a.Dumps()) != 1 {
		t.Fatalf("merged dumps = %d", len(a.Dumps()))
	}
}

func TestFields(t *testing.T) {
	v := struct {
		A      sim.Counter `metric:"a"`
		skip   sim.Counter
		b      int32 `metric:"b"`
		Plain  int64
		c      sim.Counter `metric:"c"`
		D      int         `metric:"d"`
		Ignore string
	}{}
	v.A.Add(3)
	v.skip.Inc()
	v.b = -2
	v.Plain = 9
	v.c.Inc()
	v.D = 7
	got := Fields(&v)
	want := []Stat{{"a", 3}, {"b", -2}, {"c", 1}, {"d", 7}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Fields = %v, want %v (declaration order, tagged only)", got, want)
	}

	type badTag struct {
		S string `metric:"s"`
	}
	for name, arg := range map[string]any{
		"struct value":   v,
		"int pointer":    new(int),
		"nil pointer":    (*badTag)(nil),
		"untyped nil":    nil,
		"non-int tagged": &badTag{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fields(%s) did not panic", name)
				}
			}()
			Fields(arg)
		}()
	}
}

// BenchmarkHistogramObserve times one observation on the 17-bound
// latency table and on the 48,209-bound fine table, with values spread
// over each table's range.
func BenchmarkHistogramObserve(b *testing.B) {
	for _, tc := range []struct {
		name   string
		bounds []float64
	}{
		{"bounds=17", LatencyBounds()},
		{"bounds=48209", fineBounds()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			lo, hi := tc.bounds[0], tc.bounds[len(tc.bounds)-1]
			vals := make([]float64, 1024)
			for i := range vals {
				vals[i] = lo * math.Pow(hi/lo, float64(i*613%1024)/1024)
			}
			h := NewHistogram(tc.bounds)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(vals[i%len(vals)])
			}
		})
	}
}

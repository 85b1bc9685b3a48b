package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent path spawns children.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// skipSlow skips kv-failover in -short mode: every repetition steps its
// Failover cluster's idle machinery to the apps' 600 s limit.
func skipSlow(t *testing.T, name string) {
	if name == "kv-failover" && testing.Short() {
		t.Skip("kv-failover idles to 600 simulated seconds")
	}
}

// simulated runs a workload at its quick size in-process and returns
// every metric that is a function of the seed alone.
func simulated(t *testing.T, name string, seed uint64) map[string]float64 {
	t.Helper()
	w, _ := findWorkload(name)
	res := measure(w, seed, w.quick, 0, false, nil)
	if res.Error != "" {
		t.Fatalf("%s seed %d: %s", name, seed, res.Error)
	}
	host := map[string]bool{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		host[s.Name] = s.host
	}
	vals := map[string]float64{}
	for _, m := range res.Metrics {
		if !host[m.Name] {
			vals[m.Name] = m.Value
		}
	}
	return vals
}

func TestSimulatedMetricsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipSlow(t, w.name)
			a, b := simulated(t, w.name, 1), simulated(t, w.name, 1)
			if len(a) == 0 {
				t.Fatal("no simulated metrics")
			}
			for name, v := range a {
				if b[name] != v {
					t.Errorf("%s: %v then %v with the same seed", name, v, b[name])
				}
			}
		})
	}
}

func TestSeedChangesEcho(t *testing.T) {
	a, b := simulated(t, "echo-substrate", 1), simulated(t, "echo-substrate", 2)
	for _, name := range []string{"sim_p50_us", "sim_p99_us", "sim_ops_per_s"} {
		if a[name] == b[name] {
			t.Errorf("%s = %v under seeds 1 and 2", name, a[name])
		}
	}
}

// benchmarkJSON is the benchmark declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		spec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesCode holds BENCHMARK.json to the workloads and
// metric catalog the code implements.
func TestDeclarationMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var declared []spec
	for _, m := range b.EndToEnd {
		declared = append(declared, m.spec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	declared = append(declared, b.PerLayer...)
	code := append(append([]spec(nil), endToEnd...), perLayer...)
	if len(declared) != len(code) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the code reports %d", len(declared), len(code))
	}
	seen := map[string]bool{}
	for i, d := range declared {
		c := code[i]
		if d.Name != c.Name || d.Unit != c.Unit || d.Better != c.Better {
			t.Errorf("metric %d: declared %s %s %s, code has %s %s %s", i, d.Name, d.Unit, d.Better, c.Name, c.Unit, c.Better)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

// runParent runs the benchmark command in-process (its children are this
// test binary) and returns the printed table and the final JSON line.
func runParent(t *testing.T, args ...string) (map[string]metric, summary) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := parentMain(args, &out, &errs); code != 0 {
		t.Fatalf("benchmark %v exited %d: %s", args, code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	table := map[string]metric{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 4 && !strings.HasPrefix(l, "#") {
			table[f[0]+" "+f[1]] = metric{Name: f[1], Unit: f[3]}
		}
	}
	var sum summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("summary %+v", sum)
	}
	return table, sum
}

// TestEveryDeclaredMetricPrinted runs each workload at its quick size
// with tracing and checks that the table prints every metric
// BENCHMARK.json declares, with its unit, and that the JSON line holds
// exactly the per-layer set (exactly the end-to-end set untraced).
func TestEveryDeclaredMetricPrinted(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			skipSlow(t, w.Name)
			table, sum := runParent(t, "-quick", "-seconds", "0", "-workload", w.Name, "--trace", "1")
			for _, m := range b.EndToEnd {
				if got, ok := table[w.Name+" "+m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: printed %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				if got, ok := table[w.Name+" "+m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: printed %+v, want unit %s", m.Name, got, m.Unit)
				}
				if got, ok := sum.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: JSON line has %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(sum.Metrics) != len(b.PerLayer) {
				t.Errorf("traced JSON line has %d metrics, want the %d per-layer ones", len(sum.Metrics), len(b.PerLayer))
			}
		})
	}
	_, sum := runParent(t, "-quick", "-seconds", "0", "-workload", "echo-substrate", "--trace", "0")
	for _, m := range b.EndToEnd {
		if got, ok := sum.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("%s: untraced JSON line has %+v", m.Name, got)
		}
	}
	if len(sum.Metrics) != len(b.EndToEnd) {
		t.Errorf("untraced JSON line has %d metrics, want the %d end-to-end ones", len(sum.Metrics), len(b.EndToEnd))
	}
}

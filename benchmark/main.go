// Command benchmark measures the simulator on both of its clocks: what
// the modelled cluster achieves in simulated time (latency, throughput,
// bandwidth) and what running the model costs on the host (wall time,
// set-up time, memory, CPU per layer).
//
// Each workload runs in its own child process. The command prints every
// metric as "workload metric value unit" and ends with one JSON line
// holding the end-to-end metrics, or with -trace the per-layer ones.
//
//	go run .                                   # all four workloads
//	go run . -workload echo-substrate -seed 3  # one workload
//	go run . -trace -out /tmp/bench            # plus a profiled repetition
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// childEnv marks a child process: it measures one workload and prints
// its result as JSON.
const childEnv = "REPRO_BENCHMARK_CHILD"

// childProcs is the GOMAXPROCS children run with. The simulator runs
// one proc at a time, so more Ps only add cross-thread hand-offs, and a
// fixed value keeps host time comparable across machines.
const childProcs = 1

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "input and cluster seed; repetition i uses seed+i")
	fs.Float64Var(&o.seconds, "seconds", 10, "time budget per workload, turned into a repetition count by each workload's nominal repetition time")
	fs.BoolVar(&o.trace, "trace", false, "profile one more repetition and report host time per layer (also -trace 0|1)")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes, for smoke tests")
	fs.StringVar(&o.out, "out", "", "write <workload>.json here and, with -trace, <workload>.trace.json spans")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := findWorkload(o.workload); o.workload != "" && !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

// joinTraceValue turns "-trace 0" into "-trace=0": the flag package
// takes a boolean flag's value only after "=".
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// childMain measures one workload and prints the result as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil || o.workload == "" {
		fmt.Fprintln(stderr, "child: need a valid -workload:", err)
		return 2
	}
	runtime.GOMAXPROCS(childProcs)
	w, _ := findWorkload(o.workload)
	p := w.full
	if o.quick {
		p = w.quick
	}
	var tr *tracer
	if o.trace && o.out != "" {
		tr = newTracer()
	}
	res := measure(w, o.seed, p, o.seconds, o.trace, tr)
	if tr != nil && res.Error == "" {
		if err := tr.write(filepath.Join(o.out, w.name+".trace.json")); err != nil {
			res.Error = err.Error()
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "child:", err)
		return 1
	}
	return 0
}

// environment names what host-time comparisons must hold fixed.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
}

func currentEnvironment() environment {
	return environment{Go: runtime.Version(), GOMAXPROCS: childProcs, Nproc: runtime.NumCPU()}
}

// valueUnit is one metric in the final JSON line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	ws := workloads
	if o.workload != "" {
		w, _ := findWorkload(o.workload)
		ws = []*workload{w}
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	env := currentEnvironment()
	fmt.Fprintf(stdout, "# %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g trace=%t quick=%t\n",
		env.Go, env.GOMAXPROCS, env.Nproc, o.seed, o.seconds, o.trace, o.quick)
	sum := summary{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range ws {
		res, err := runChild(o, w, stderr)
		if res != nil {
			sum.Attempted += res.Attempted
			sum.Failed += res.Failed
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: FAILED: %v\n", w.name, err)
			sum.Correct = false
			if res == nil || res.Failed == 0 {
				sum.Attempted++
				sum.Failed++
			}
			continue
		}
		fmt.Fprintf(stdout, "%s reps %d count\n", w.name, res.Reps)
		fmt.Fprintf(stdout, "%s host_reps %d count\n", w.name, res.HostReps)
		fmt.Fprintf(stdout, "%s sim_samples %d count\n", w.name, res.Samples)
		fmt.Fprintf(stdout, "%s fail_ratio %s ratio\n", w.name, fmtFloat(ratio(float64(res.Failed), float64(res.Attempted))))
		for _, m := range res.Metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.Name, fmtFloat(m.Value), m.Unit)
			// The JSON line carries the end-to-end metrics, or with
			// -trace the per-layer ones.
			if isPerLayer(m.Name) == o.trace {
				key := m.Name
				if len(ws) > 1 {
					key = w.name + "/" + m.Name
				}
				sum.Metrics[key] = valueUnit{m.Value, m.Unit}
			}
		}
		if o.out != "" {
			if err := writeJSON(filepath.Join(o.out, w.name+".json"), map[string]any{"environment": env, "result": res}); err != nil {
				fmt.Fprintln(stderr, err)
				sum.Correct = false
			}
		}
	}
	blob, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !sum.Correct {
		return 1
	}
	return 0
}

func isPerLayer(name string) bool {
	for _, s := range perLayer {
		if s.Name == name {
			return true
		}
	}
	return false
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runChild measures one workload in a child process.
func runChild(o *options, w *workload, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", fmtFloat(o.seconds),
		"-trace="+strconv.FormatBool(o.trace),
		"-quick="+strconv.FormatBool(o.quick),
		"-out", o.out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child: %w (exit: %v)", err, runErr)
	}
	if runErr != nil {
		return &res, runErr
	}
	if res.Error != "" {
		return &res, errors.New(res.Error)
	}
	return &res, nil
}

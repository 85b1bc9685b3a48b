package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// smpRunReport runs a web workload with a 4-worker pool on hosts with
// the given core count and returns its run report (every counter and
// the blocked processes) plus the workload result, the complete
// observable surface of one run.
func smpRunReport(t *testing.T, cores, workers int) string {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes:     5,
		Transport: cluster.TransportSubstrate,
		Cores:     cores,
		Seed:      7,
	})
	cfg := apps.DefaultWebConfig(1024, 8)
	cfg.Workers = workers
	cfg.ServiceTime = 100 * sim.Microsecond
	res := apps.RunWeb(c, cfg)
	if res.Err != nil {
		t.Fatalf("web run: %v", res.Err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "web: %d reqs avg %v p99 %v elapsed %v\n",
		res.Requests, res.AvgResponse, res.P99Response, res.Elapsed)
	sb.WriteString(runReport(c))
	return sb.String()
}

// TestSMPSchedulerDeterministic: two independent runs with a 4-worker
// pool on 4-core hosts produce byte-identical reports. Worker competition on the shared poller and the per-core run
// queues must be resolved by simulated time alone, never by host
// goroutine scheduling.
func TestSMPSchedulerDeterministic(t *testing.T) {
	a := smpRunReport(t, 4, 4)
	b := smpRunReport(t, 4, 4)
	if a != b {
		t.Fatalf("SMP runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestSMPZeroCostOff: explicitly setting every SMP knob to its off
// value — Cores(1) and the legacy Workers-0 server — is
// byte-identical to leaving them all unset. The subsystem charges
// nothing when disabled; the committed goldens
// (which run with the knobs unset) therefore also pin the disabled
// configuration. Workers deliberately stays 0 on both sides: per the
// WebConfig contract, 0 is the legacy server and any Workers>0 —
// including 1 — is the structurally different pool path.
func TestSMPZeroCostOff(t *testing.T) {
	explicit := smpRunReport(t, 1, 0)
	defaulted := smpRunReport(t, 0, 0)
	if explicit != defaulted {
		t.Fatalf("explicit off-values diverged from defaults:\n--- explicit ---\n%s--- default ---\n%s",
			explicit, defaulted)
	}
}

// TestSMPPoolOfOneDeterministic pins the remaining corner: a single
// pool worker on a single core — the minimal configuration of the
// pool path — reproduces byte-for-byte across independent runs.
func TestSMPPoolOfOneDeterministic(t *testing.T) {
	a := smpRunReport(t, 1, 1)
	b := smpRunReport(t, 1, 1)
	if a != b {
		t.Fatalf("pool-of-one runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Core-scaling study: SMP hosts under worker-pool servers. Each point
// runs an app workload against a server whose request handling charges
// real compute through the host's core scheduler, with K event-loop
// workers sharing one multi-waiter poller, worker i pinned to core
// i%Cores. With ServiceTime dominating the wire time, throughput must
// grow with workers until either the cores or the offered load run out
// — and must NOT grow when the workers outnumber the cores, because
// pinned compute serializes on the shared run queues. That pair of
// curves is the measurement.

// coreScaleServiceTime is the per-request compute charge: large against
// the ~100µs wire round trip, so the sweep measures core scheduling
// rather than the network.
const coreScaleServiceTime = 200 * sim.Microsecond

// coreScaleClients is the client-node count: enough concurrent request
// streams to keep 8 workers busy.
const coreScaleClients = 8

// coreScaleOpsPerClient keeps each point short while giving the pool
// time to reach steady state.
const coreScaleOpsPerClient = 24

// coreScalePoint is one measurement of the sweep.
type coreScalePoint struct {
	App       string       `json:"app"`
	Transport string       `json:"transport"`
	Cores     int          `json:"cores"`
	Workers   int          `json:"workers"`
	Requests  int          `json:"requests"`
	Elapsed   sim.Duration `json:"elapsed_ns"`
	ReqPerSec float64      `json:"req_per_sec"`
	Err       string       `json:"err,omitempty"`
}

// DefaultCoreScaleWorkers is the worker sweep the acceptance run uses.
func DefaultCoreScaleWorkers() []int { return []int{1, 2, 4, 8} }

// DefaultCoreScaleCores is the host-core sweep.
func DefaultCoreScaleCores() []int { return []int{1, 2, 4, 8} }

func coreScaleCluster(tr cluster.Transport, cores int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:     coreScaleClients + 1,
		Transport: tr,
		Cores:     cores,
		Seed:      1,
	})
}

// coreScaleWeb runs one web data point: every request charges
// coreScaleServiceTime of server compute before the response. Each
// client keeps a single connection for all its requests so connection
// setup does not dilute the compute being measured.
func coreScaleWeb(tr cluster.Transport, cores, workers int) coreScalePoint {
	cfg := apps.DefaultWebConfig(1024, coreScaleOpsPerClient)
	cfg.Clients = coreScaleClients
	cfg.RequestsPerClient = coreScaleOpsPerClient
	cfg.Workers = workers
	cfg.ServiceTime = coreScaleServiceTime
	res := apps.RunWeb(coreScaleCluster(tr, cores), cfg)
	pt := coreScalePoint{
		App:       "web",
		Transport: tr.String(),
		Cores:     cores,
		Workers:   workers,
		Requests:  res.Requests,
		Elapsed:   res.Elapsed,
		ReqPerSec: res.ReqPerSec(),
	}
	if res.Err != nil {
		pt.Err = res.Err.Error()
	}
	return pt
}

// coreScaleKV runs one kvstore data point.
func coreScaleKV(tr cluster.Transport, cores, workers int) coreScalePoint {
	cfg := apps.DefaultKVConfig(1024)
	cfg.Clients = coreScaleClients
	cfg.OpsPerClient = coreScaleOpsPerClient
	cfg.Workers = workers
	cfg.ServiceTime = coreScaleServiceTime
	res := apps.RunKVStore(coreScaleCluster(tr, cores), cfg)
	pt := coreScalePoint{
		App:       "kv",
		Transport: tr.String(),
		Cores:     cores,
		Workers:   workers,
		Requests:  res.Ops,
		Elapsed:   res.Elapsed,
		ReqPerSec: res.OpsPerSec(),
	}
	if res.Err != nil {
		pt.Err = res.Err.Error()
	}
	return pt
}

// CoreScaleSweep runs the full grid: both apps, both transports, every
// (cores, workers) pair.
func CoreScaleSweep(cores, workers []int) []coreScalePoint {
	var pts []coreScalePoint
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		for _, nc := range cores {
			for _, w := range workers {
				pts = append(pts, coreScaleWeb(tr, nc, w))
				pts = append(pts, coreScaleKV(tr, nc, w))
			}
		}
	}
	return pts
}

// VerifyCoreScale checks the sweep's two structural claims:
//
//  1. At fixed (app, transport, cores), throughput is monotone
//     non-decreasing from 1 to 4 workers (a small tolerance absorbs
//     scheduling jitter at the saturation knee).
//  2. On a 4-core host, 4 workers beat 1 worker by at least 2x for the
//     web workload — the acceptance gate for the core scheduler
//     actually overlapping compute.
func VerifyCoreScale(pts []coreScalePoint) error {
	byKey := make(map[string]float64, len(pts))
	for _, pt := range pts {
		if pt.Err != "" {
			return fmt.Errorf("corescale %s/%s c%d w%d: %s", pt.App, pt.Transport, pt.Cores, pt.Workers, pt.Err)
		}
		byKey[fmt.Sprintf("%s/%s/c%d/w%d", pt.App, pt.Transport, pt.Cores, pt.Workers)] = pt.ReqPerSec
	}
	const tolerance = 0.97 // jitter allowance at the saturation knee
	for _, pt := range pts {
		if pt.Workers != 1 {
			continue
		}
		prev := pt.ReqPerSec
		for _, w := range []int{2, 4} {
			k := fmt.Sprintf("%s/%s/c%d/w%d", pt.App, pt.Transport, pt.Cores, w)
			cur, ok := byKey[k]
			if !ok {
				continue
			}
			if cur < prev*tolerance {
				return fmt.Errorf("corescale %s: %.0f req/s < %d-worker %.0f (throughput regressed with workers)",
					k, cur, w/2, prev)
			}
			prev = cur
		}
	}
	for _, tr := range []string{cluster.TransportSubstrate.String(), cluster.TransportTCP.String()} {
		one, ok1 := byKey["web/"+tr+"/c4/w1"]
		four, ok4 := byKey["web/"+tr+"/c4/w4"]
		if !ok1 || !ok4 {
			continue
		}
		if four < 2*one {
			return fmt.Errorf("corescale web/%s: 4 workers on 4 cores %.0f req/s, want >= 2x the 1-worker %.0f",
				tr, four, one)
		}
	}
	return nil
}

package apps

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// workerCluster builds an n-node cluster with the given core count on
// the chosen transport.
func workerCluster(tr cluster.Transport, nodes, cores int) *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: nodes, Transport: tr, Cores: cores, Seed: 1})
}

func TestWebWorkerPoolCompletesAllRequests(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportTCP, cluster.TransportSubstrate} {
		for _, workers := range []int{1, 2, 4} {
			cfg := DefaultWebConfig(1024, 1)
			cfg.Workers = workers
			res := RunWeb(workerCluster(tr, 4, 4), cfg)
			if res.Err != nil {
				t.Fatalf("worker-pool web (%v, %d workers): %v", tr, workers, res.Err)
			}
			if res.Requests != 72 {
				t.Fatalf("completed %d of 72 requests (%v, %d workers)", res.Requests, tr, workers)
			}
		}
	}
}

func TestWebWorkerPoolKeepAlive(t *testing.T) {
	// HTTP/1.1: eight requests ride each connection, so the state
	// machine must reset between requests instead of closing.
	for _, tr := range []cluster.Transport{cluster.TransportTCP, cluster.TransportSubstrate} {
		cfg := DefaultWebConfig(4096, 8)
		cfg.Workers = 4
		res := RunWeb(workerCluster(tr, 4, 4), cfg)
		if res.Err != nil {
			t.Fatalf("worker-pool keep-alive web (%v): %v", tr, res.Err)
		}
		if res.Requests != 72 {
			t.Fatalf("completed %d of 72 requests (%v)", res.Requests, tr)
		}
	}
}

func TestKVWorkerPoolCompletes(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportTCP, cluster.TransportSubstrate} {
		for _, workers := range []int{1, 4} {
			cfg := DefaultKVConfig(1024)
			cfg.Workers = workers
			res := RunKVStore(workerCluster(tr, 4, 4), cfg)
			if res.Err != nil {
				t.Fatalf("worker-pool kv (%v, %d workers): %v", tr, workers, res.Err)
			}
			if res.Ops != cfg.Clients*cfg.OpsPerClient {
				t.Fatalf("completed %d ops (%v, %d workers)", res.Ops, tr, workers)
			}
		}
	}
}

// TestWorkerPoolComputeScalesWithCores: with a per-request ServiceTime
// that dominates the wire time, 4 workers on 4 cores must beat 1 worker
// by at least 2x on wall-clock (the requests/sec acceptance gate), and
// 4 workers on 1 core must not beat 1 worker by more than scheduling
// noise (the serialization proof).
func TestWorkerPoolComputeScalesWithCores(t *testing.T) {
	elapsed := func(workers, cores int) sim.Duration {
		cfg := DefaultKVConfig(64)
		cfg.Workers = workers
		cfg.ServiceTime = 200 * sim.Microsecond
		cfg.Clients = 4
		cfg.OpsPerClient = 25
		res := RunKVStore(workerCluster(cluster.TransportSubstrate, 5, cores), cfg)
		if res.Err != nil {
			t.Fatalf("kv %d workers %d cores: %v", workers, cores, res.Err)
		}
		return res.Elapsed
	}
	one := elapsed(1, 4)
	four := elapsed(4, 4)
	if four*2 > one {
		t.Fatalf("4 workers on 4 cores not 2x faster: 1w=%v 4w=%v", one, four)
	}
	fourOn1 := elapsed(4, 1)
	if fourOn1*4 < one*3 {
		t.Fatalf("4 workers on 1 core implausibly fast: 1w=%v 4w/1c=%v (compute should serialize)", one, fourOn1)
	}
}

// TestWorkerPoolPerWorkerTelemetry: every worker's delivery counters
// appear in the node snapshot, and with enough connections each worker
// actually serves some events (the delivery-partitioning guarantee is
// exclusive but fair).
func TestWorkerPoolPerWorkerTelemetry(t *testing.T) {
	c := workerCluster(cluster.TransportSubstrate, 4, 4)
	cfg := DefaultWebConfig(1024, 1)
	cfg.Workers = 4
	cfg.ServiceTime = 50 * sim.Microsecond
	if res := RunWeb(c, cfg); res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := c.Nodes[0].Tel.Snapshot()
	byName := map[string]int64{}
	for _, ct := range snap.Counters {
		byName[ct.Layer+"/"+ct.Metric] = ct.Value
	}
	var delivered int64
	for i := 0; i < 4; i++ {
		v, ok := byName["poller/poll_waiter_w"+string(rune('0'+i))+"_delivered"]
		if !ok {
			t.Fatalf("missing per-waiter counter for worker %d in %v", i, byName)
		}
		delivered += v
		if ev := byName["apps/web_worker"+string(rune('0'+i))+"_events"]; ev == 0 {
			t.Fatalf("worker %d served no events (unfair partitioning): %v", i, byName)
		}
	}
	if delivered != byName["poller/poll_delivered"] {
		t.Fatalf("per-waiter deliveries %d do not sum to poller total %d", delivered, byName["poller/poll_delivered"])
	}
	// Core-scheduler gauges appear once compute was charged.
	if _, ok := byName["cpu/core0_busy_ns"]; !ok {
		t.Fatalf("missing cpu core telemetry in %v", byName)
	}
}

package apps

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

func TestKVStoreCompletesOverBothTransports(t *testing.T) {
	for name, build := range allTransports() {
		if name == "substrate-dg" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			c := build(4)
			res := RunKVStore(c, DefaultKVConfig(1024))
			if res.Err != nil {
				t.Fatalf("kv over %s: %v", name, res.Err)
			}
			if res.Ops != 150 {
				t.Fatalf("ops = %d, want 150", res.Ops)
			}
			if res.AvgLatency <= 0 || res.P99Latency < res.AvgLatency {
				t.Fatalf("latency stats broken: avg=%v p99=%v", res.AvgLatency, res.P99Latency)
			}
		})
	}
}

func TestKVStoreSubstrateLowerLatency(t *testing.T) {
	tcp := RunKVStore(cluster.NewTCP(4), DefaultKVConfig(256))
	sub := RunKVStore(cluster.NewSubstrate(4, nil), DefaultKVConfig(256))
	if tcp.Err != nil || sub.Err != nil {
		t.Fatalf("errs: tcp=%v sub=%v", tcp.Err, sub.Err)
	}
	if sub.AvgLatency >= tcp.AvgLatency {
		t.Fatalf("substrate kv latency %v should beat TCP %v", sub.AvgLatency, tcp.AvgLatency)
	}
	if sub.OpsPerSec() <= tcp.OpsPerSec() {
		t.Fatalf("substrate kv throughput %.0f should beat TCP %.0f", sub.OpsPerSec(), tcp.OpsPerSec())
	}
}

func TestKVStoreValueSizeScaling(t *testing.T) {
	small := RunKVStore(cluster.NewSubstrate(4, nil), DefaultKVConfig(64))
	big := RunKVStore(cluster.NewSubstrate(4, nil), DefaultKVConfig(32<<10))
	if small.Err != nil || big.Err != nil {
		t.Fatalf("errs: %v %v", small.Err, big.Err)
	}
	if big.AvgLatency <= small.AvgLatency {
		t.Fatalf("32KB values (%v) should cost more than 64B (%v)", big.AvgLatency, small.AvgLatency)
	}
}

func TestKVStoreNeedsEnoughNodes(t *testing.T) {
	res := RunKVStore(cluster.NewTCP(2), DefaultKVConfig(64))
	if res.Err == nil {
		t.Fatal("3-client workload on a 2-node cluster should error")
	}
}

// TestKVUnknownOpClosesConnection sends one request whose op is none of
// GET, SET or sync: the server must close the connection rather than
// answer, on the forked server over both transports and on a 2-worker
// pool.
func TestKVUnknownOpClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tr      cluster.Transport
		workers int
	}{
		{"forked-tcp", cluster.TransportTCP, 0},
		{"forked-substrate", cluster.TransportSubstrate, 0},
		{"pool-tcp", cluster.TransportTCP, 2},
		{"pool-substrate", cluster.TransportSubstrate, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := workerCluster(tc.tr, 2, 2)
			cfg := DefaultKVConfig(64)
			cfg.Workers = tc.workers
			var srvErr error
			srvDone := false
			c.Eng.Spawn("kv-server", func(p *sim.Proc) {
				srvErr = kvServer(p, c.Nodes[0], cfg, 1, netListen(c.Nodes[0]))
				srvDone = true
			})
			var n int
			var readErr error
			answered := false
			c.Eng.Spawn("kv-client", func(p *sim.Proc) {
				p.Sleep(20 * sim.Microsecond)
				conn, err := netDial(c.Nodes[1], c.Addr(0), cfg.Port)(p)
				if err != nil {
					readErr = err
					return
				}
				defer conn.Close(p)
				if err := kvSendRequest(p, conn, &kvRequest{Op: kvSyncEnt + 1, Key: "key-0"}); err != nil {
					readErr = err
					return
				}
				var objs []any
				n, objs, readErr = sock.ReadFull(p, conn, kvHeaderBytes)
				answered = findKVResponse(objs) != nil
			})
			c.Run(sim.Second)
			if answered || n == kvHeaderBytes {
				t.Fatalf("server answered an unknown op (%d header bytes)", n)
			}
			if readErr == nil {
				t.Fatal("client read no error from the closed connection")
			}
			if !srvDone || srvErr != nil {
				t.Fatalf("server did not finish cleanly: done=%v err=%v", srvDone, srvErr)
			}
		})
	}
}

package apps

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
)

// TestSubstrateFTPRunsLeaveNoGoroutines runs six 2-node substrate FTP
// transfers in one process. Every proc of a run finishes and the NIC
// firmware runs on events, not coroutines, so no goroutine outlives its
// run to keep the finished cluster reachable: the goroutine count ends
// where it started.
func TestSubstrateFTPRunsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 6; i++ {
		c := cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Seed: uint64(i + 1)})
		if res := RunFTP(c, 256<<10); res.Err != nil {
			t.Fatalf("run %d: %v", i, res.Err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("six FTP runs took the goroutine count from %d to %d", before, after)
	}
}

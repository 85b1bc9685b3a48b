package apps

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestSubstrateFTPRunsLeaveNoGoroutines runs six 2-node substrate FTP
// transfers in one process. Every proc of a run finishes and the NIC
// firmware runs on events, not coroutines, so no goroutine outlives its
// run to keep the finished cluster reachable: every goroutine alive
// after the runs was alive before them. The test compares the sets, not
// their sizes. The previous test's goroutine can still be on its way out
// when this one starts (under -race its exit is slow enough to see),
// and a count read its exit as one goroutine fewer.
func TestSubstrateFTPRunsLeaveNoGoroutines(t *testing.T) {
	before := goroutines()
	for i := 0; i < 6; i++ {
		c := cluster.New(cluster.Config{Nodes: 2, Transport: cluster.TransportSubstrate, Seed: uint64(i + 1)})
		if res := RunFTP(c, 256<<10); res.Err != nil {
			t.Fatalf("run %d: %v", i, res.Err)
		}
	}
	for id, stack := range goroutines() {
		if _, ok := before[id]; !ok {
			t.Errorf("goroutine %s outlived the six FTP runs:\n%s", id, stack)
		}
	}
}

// goroutines returns every live goroutine's stack, keyed by its id. The
// runtime never reuses an id.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	m := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		m[id] = g
	}
	return m
}

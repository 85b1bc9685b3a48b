package bench

import (
	"strconv"
	"testing"

	"repro/internal/cluster"
)

// TestConnScalePollerWorkStaysFlat is the refactor's acceptance
// criterion: the server's per-Wait readiness work at 1024 registered
// connections must stay within a small constant factor of the 8-
// connection baseline on both stacks — delivery from the ready list,
// not a linear re-scan of the interest set (which would grow the ratio
// by two orders of magnitude here).
func TestConnScalePollerWorkStaysFlat(t *testing.T) {
	hi := 1024
	if testing.Short() {
		hi = 256
	}
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			base := connScale(tr, 8, false, false)
			big := connScale(tr, hi, false, false)
			for _, pt := range []ConnScalePoint{base, big} {
				if pt.Err != "" {
					t.Fatalf("%d conns: %s", pt.Conns, pt.Err)
				}
				if pt.Requests != connScalePacers*connScaleReqs {
					t.Fatalf("%d conns: %d echoes", pt.Conns, pt.Requests)
				}
			}
			if base.ScannedPerWait <= 0 || big.ScannedPerWait <= 0 {
				t.Fatalf("counters missing: base=%+v big=%+v", base, big)
			}
			// Allow generous constant-factor noise (accept churn, close
			// storms); linear growth would be a ratio around hi/8.
			if ratio := big.ScannedPerWait / base.ScannedPerWait; ratio > 4 {
				t.Fatalf("per-Wait work grew %.1fx from 8 to %d conns (%.2f -> %.2f): not O(ready)",
					ratio, hi, base.ScannedPerWait, big.ScannedPerWait)
			}
		})
	}
}

// TestConnScaleDispatchFlat is the tentpole's acceptance criterion: in
// hashed-demux mode the server's charged per-dispatch lookup cost
// (descriptors walked per tag match on the substrate NIC, hash-chain
// entries probed per segment on TCP) must stay within 1.5x of the
// 8-connection baseline all the way to 16k registered connections on
// both stacks. The paper-faithful linear walk grows this cost by three
// orders of magnitude over the same sweep.
func TestConnScaleDispatchFlat(t *testing.T) {
	hi := 16384
	if testing.Short() {
		hi = 1024
	}
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			base := connScale(tr, 8, false, true)
			big := connScale(tr, hi, false, true)
			for _, pt := range []ConnScalePoint{base, big} {
				if pt.Err != "" {
					t.Fatalf("%d conns: %s", pt.Conns, pt.Err)
				}
				if pt.DemuxLookups == 0 {
					t.Fatalf("%d conns: no demux lookups counted", pt.Conns)
				}
			}
			// Probe counts below one happen (empty-bucket misses); floor
			// the baseline at a single probe so the bound stays a cost
			// bound rather than a ratio of near-zero noise.
			den := base.DemuxCost
			if den < 1 {
				den = 1
			}
			if ratio := big.DemuxCost / den; ratio > 1.5 {
				t.Fatalf("per-dispatch demux cost grew %.2fx from 8 to %d conns (%.2f -> %.2f): lookup not O(1)",
					ratio, hi, base.DemuxCost, big.DemuxCost)
			}
		})
	}
}

// TestConnScaleDispatchGate is the make-verify regression gate: the
// quick all-active hashed comparison (1024 vs 8 connections) that
// catches a demux-cost regression without the full 16k sweep.
func TestConnScaleDispatchGate(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			base := connScale(tr, 8, true, true)
			big := connScale(tr, 1024, true, true)
			for _, pt := range []ConnScalePoint{base, big} {
				if pt.Err != "" {
					t.Fatalf("%d conns: %s", pt.Conns, pt.Err)
				}
				if pt.DemuxLookups == 0 {
					t.Fatalf("%d conns: no demux lookups counted", pt.Conns)
				}
			}
			den := base.DemuxCost
			if den < 1 {
				den = 1
			}
			if ratio := big.DemuxCost / den; ratio > 1.5 {
				t.Fatalf("per-dispatch demux cost grew %.2fx from 8 to 1024 conns (%.2f -> %.2f)",
					ratio, base.DemuxCost, big.DemuxCost)
			}
		})
	}
}

// TestDescScaleSeparation pins the microbench's point: at a quarter
// million preposted descriptors the linear walk's mean lookup length
// tracks the population while the hashed table's stays at one probe.
func TestDescScaleSeparation(t *testing.T) {
	n := 262144
	if testing.Short() {
		n = 4096
	}
	lin := descScale(n, false, 4)
	hash := descScale(n, true, 4)
	if lin.Lookups == 0 || hash.Lookups == 0 {
		t.Fatalf("no lookups counted: linear=%+v hashed=%+v", lin, hash)
	}
	if lin.MeanLookup < float64(n)/2 {
		t.Fatalf("linear mean lookup %.0f does not track the %d-descriptor population", lin.MeanLookup, n)
	}
	if hash.MeanLookup > 2 {
		t.Fatalf("hashed mean lookup %.2f is not O(1) at %d descriptors", hash.MeanLookup, n)
	}
}

// BenchmarkConnScale reports the sweep as benchmark metrics; bench-smoke
// runs it with -benchtime 1x as a perf-trajectory gate.
func BenchmarkConnScale(b *testing.B) {
	counts := DefaultConnScaleCounts()
	if testing.Short() {
		counts = []int{8, 128}
	}
	for _, tr := range []cluster.Transport{cluster.TransportSubstrate, cluster.TransportTCP} {
		for _, n := range counts {
			b.Run(tr.String()+"/"+strconv.Itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pt := connScale(tr, n, false, false)
					if pt.Err != "" {
						b.Fatal(pt.Err)
					}
					b.ReportMetric(pt.ScannedPerWait, "scanned/wait")
					b.ReportMetric(float64(pt.Waits), "waits")
					b.ReportMetric(pt.Elapsed.Seconds()*1e3, "sim-ms")
				}
			})
		}
	}
}

package bench

import (
	"testing"

	"repro/internal/cluster"
)

// TestCoreScaleGate is the quick core-scaling gate run by `make
// verify`: a reduced grid that still exercises both structural claims
// — worker monotonicity at fixed cores, and the 4-workers-on-4-cores
// >= 2x web acceptance bar on both transports.
func TestCoreScaleGate(t *testing.T) {
	pts := CoreScaleSweep([]int{1, 4}, []int{1, 2, 4})
	if err := VerifyCoreScale(pts); err != nil {
		for _, pt := range pts {
			t.Logf("%s/%s c%d w%d: %.0f req/s", pt.App, pt.Transport, pt.Cores, pt.Workers, pt.ReqPerSec)
		}
		t.Fatal(err)
	}
}

// TestCoreScaleSingleCoreFlat pins down the other half of the claim:
// extra workers on a one-core host must not create throughput out of
// thin air. Pinned compute serializes on the single run queue, so the
// 4-worker point stays within a small band of the 1-worker point.
func TestCoreScaleSingleCoreFlat(t *testing.T) {
	one := coreScaleWeb(cluster.TransportSubstrate, 1, 1)
	four := coreScaleWeb(cluster.TransportSubstrate, 1, 4)
	if one.Err != "" || four.Err != "" {
		t.Fatalf("errs: %q %q", one.Err, four.Err)
	}
	if four.ReqPerSec > one.ReqPerSec*1.15 {
		t.Fatalf("4 workers on 1 core: %.0f req/s vs %.0f with 1 worker — compute is not being charged to the core",
			four.ReqPerSec, one.ReqPerSec)
	}
}

// TestCoreScaleDeterministic: the sweep is a simulation measurement,
// so a point rerun with identical parameters reproduces exactly.
func TestCoreScaleDeterministic(t *testing.T) {
	a := coreScaleKV(cluster.TransportSubstrate, 4, 4)
	b := coreScaleKV(cluster.TransportSubstrate, 4, 4)
	if a != b {
		t.Fatalf("corescale point not deterministic:\n%+v\n%+v", a, b)
	}
}

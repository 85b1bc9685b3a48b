package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
)

// quickApps renders small, deterministic application results.
func quickApps() string {
	var sb strings.Builder
	ftp := apps.RunFTP(cluster.NewSubstrate(2, nil), 4<<20)
	fmt.Fprintf(&sb, "ftp substrate 4MB: %d bytes in %v\n", ftp.Bytes, ftp.Elapsed)
	web := apps.RunWeb(cluster.NewSubstrate(4, webOpts()), apps.DefaultWebConfig(1024, 1))
	fmt.Fprintf(&sb, "web substrate S=1K: %d reqs avg %v p99 %v\n", web.Requests, web.AvgResponse, web.P99Response)
	mm := apps.RunMatmul(cluster.NewSubstrate(4, nil), 128)
	fmt.Fprintf(&sb, "matmul substrate N=128: %v\n", mm.Elapsed)
	kv := apps.RunKVStore(cluster.NewTCP(4), apps.DefaultKVConfig(1024))
	fmt.Fprintf(&sb, "kv tcp 1K: %d ops avg %v\n", kv.Ops, kv.AvgLatency)
	return sb.String()
}

// TestGoldenApps pins the end-to-end application results byte-for-byte;
// rerun with -update after intentional model changes.
func TestGoldenApps(t *testing.T) {
	checkGolden(t, "apps.golden", quickApps())
}

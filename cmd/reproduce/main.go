// Command reproduce regenerates every table and figure of the paper's
// evaluation section, plus the design-choice ablations, printing each as
// an aligned table with the paper's reported result alongside.
//
// Usage:
//
//	reproduce              # all figures
//	reproduce -fig fig13   # one figure (fig11, fig12, fig13, fig14,
//	                       # fig15, fig16, fig17)
//	reproduce -ablations   # the design-choice studies
//	reproduce -chaos nic   # one fault-domain chaos matrix (link, nic,
//	                       # fabric, restart, all)
//	reproduce -quick       # smaller sweeps (CI-speed)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	figFlag := flag.String("fig", "all", "which figure to reproduce (all, fig11..fig17)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations instead")
	chaos := flag.String("chaos", "", "run a fault-domain chaos matrix instead (link, nic, fabric, restart or all)")
	chaosSeeds := flag.Int("chaos-seeds", 5, "seeded fault plans per chaos workload (-quick uses 1)")
	auditFlag := flag.Bool("audit", false, "run the descriptor-leak audit sweep instead")
	metrics := flag.Bool("metrics", false, "run the hot-path latency decomposition instead")
	connscale := flag.Bool("connscale", false, "run the connection-scaling poller study instead")
	corescale := flag.Bool("corescale", false, "run the SMP core-scaling worker-pool study instead")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	csvDir := flag.String("csv", "", "also write each figure as CSV into this directory")
	plot := flag.Bool("plot", false, "also render each figure as an ASCII chart")
	flag.Parse()

	emit := func(f bench.Figure) {
		f.Fprint(os.Stdout)
		if *plot {
			f.Plot(os.Stdout, 64, 14)
		}
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, f.ID+".csv")
		out, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		f.CSV(out)
		out.Close()
	}

	if *connscale {
		counts := bench.DefaultConnScaleCounts()
		activeCounts := bench.DefaultConnScaleActiveCounts()
		hashedCounts := bench.ExtendedConnScaleCounts()
		descCounts := bench.DefaultDescScaleCounts()
		if *quick {
			counts = []int{8, 128}
			activeCounts = []int{8, 64}
			hashedCounts = []int{8, 128}
			descCounts = []int{1024, 4096}
		}
		pts := bench.ConnScaleSweep(counts, false, false)
		fmt.Printf("%12s  %8s  %8s  %10s  %10s  %14s  %12s\n",
			"transport", "conns", "waits", "delivered", "scanned", "scanned/wait", "sim-ms")
		for _, pt := range pts {
			if pt.Err != "" {
				fmt.Fprintf(os.Stderr, "reproduce: connscale %s/%d: %s\n", pt.Transport, pt.Conns, pt.Err)
				os.Exit(1)
			}
			fmt.Printf("%12s  %8d  %8d  %10d  %10d  %14.2f  %12.3f\n",
				pt.Transport, pt.Conns, pt.Waits, pt.Delivered, pt.Scanned,
				pt.ScannedPerWait, pt.Elapsed.Seconds()*1e3)
		}
		active := bench.ConnScaleSweep(activeCounts, true, false)
		fmt.Printf("\nall-active variant (every connection pacing):\n")
		fmt.Printf("%12s  %8s  %8s  %14s  %12s  %12s\n",
			"transport", "conns", "reqs", "scanned/wait", "req/s", "sim-ms")
		for _, pt := range active {
			if pt.Err != "" {
				fmt.Fprintf(os.Stderr, "reproduce: connscale-active %s/%d: %s\n", pt.Transport, pt.Conns, pt.Err)
				os.Exit(1)
			}
			fmt.Printf("%12s  %8d  %8d  %14.2f  %12.0f  %12.3f\n",
				pt.Transport, pt.Conns, pt.Requests, pt.ScannedPerWait,
				pt.ReqPerSec, pt.Elapsed.Seconds()*1e3)
		}
		pts = append(pts, active...)

		// Hashed-demux extension: the same idle sweep under O(1)
		// expected tag matching, reaching populations the linear walk
		// cannot serve, with the server's charged per-dispatch lookup
		// cost alongside the poller counters.
		hashed := bench.ConnScaleSweep(hashedCounts, false, true)
		// All-active endpoints of the acceptance sweep: every
		// connection pacing, per-dispatch cost still flat to 16k.
		activeHashedCounts := []int{8, 1024, 16384}
		if *quick {
			activeHashedCounts = []int{8, 64}
		}
		hashed = append(hashed, bench.ConnScaleSweep(activeHashedCounts, true, true)...)
		fmt.Printf("\nhashed demux (extended sweep, per-dispatch lookup cost):\n")
		fmt.Printf("%12s  %8s  %8s  %8s  %14s  %12s  %12s\n",
			"transport", "conns", "active", "clients", "demux lookups", "cost/lookup", "sim-ms")
		for _, pt := range hashed {
			if pt.Err != "" {
				fmt.Fprintf(os.Stderr, "reproduce: connscale-hashed %s/%d: %s\n", pt.Transport, pt.Conns, pt.Err)
				os.Exit(1)
			}
			fmt.Printf("%12s  %8d  %8v  %8d  %14d  %12.2f  %12.3f\n",
				pt.Transport, pt.Conns, pt.Active, pt.ClientNodes, pt.DemuxLookups,
				pt.DemuxCost, pt.Elapsed.Seconds()*1e3)
		}

		// Raw-EMP descriptor-population microbench: linear walk vs
		// hashed probes at populations past the connection sweeps.
		desc := bench.DescScaleSweep(descCounts)
		fmt.Printf("\nraw EMP tag-match scaling (worst-case preposted population):\n")
		fmt.Printf("%12s  %8s  %14s  %14s\n", "descriptors", "mode", "mean lookup", "match-ns")
		for _, pt := range desc {
			mode := "linear"
			if pt.Hashed {
				mode = "hashed"
			}
			fmt.Printf("%12d  %8s  %14.1f  %14.0f\n", pt.Descriptors, mode, pt.MeanLookup, pt.MatchNs)
		}

		record := struct {
			Linear    []bench.ConnScalePoint `json:"linear"`
			Hashed    []bench.ConnScalePoint `json:"hashed"`
			DescScale []bench.DescScalePoint `json:"desc_scale"`
		}{Linear: pts, Hashed: hashed, DescScale: desc}
		fmt.Println()
		writeRecord("BENCH_connscale.json", record)
		return
	}

	if *corescale {
		cores := bench.DefaultCoreScaleCores()
		workers := bench.DefaultCoreScaleWorkers()
		if *quick {
			cores = []int{1, 4}
			workers = []int{1, 2, 4}
		}
		pts := bench.CoreScaleSweep(cores, workers)
		fmt.Printf("%5s  %12s  %6s  %8s  %9s  %10s  %10s\n",
			"app", "transport", "cores", "workers", "requests", "req/s", "sim-ms")
		for _, pt := range pts {
			if pt.Err != "" {
				fmt.Fprintf(os.Stderr, "reproduce: corescale %s/%s c%d w%d: %s\n",
					pt.App, pt.Transport, pt.Cores, pt.Workers, pt.Err)
				os.Exit(1)
			}
			fmt.Printf("%5s  %12s  %6d  %8d  %9d  %10.0f  %10.3f\n",
				pt.App, pt.Transport, pt.Cores, pt.Workers, pt.Requests,
				pt.ReqPerSec, pt.Elapsed.Seconds()*1e3)
		}
		if err := bench.VerifyCoreScale(pts); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		writeRecord("BENCH_corescale.json", pts)
		return
	}

	if *metrics {
		rep := bench.RunMetrics(*quick)
		bench.FprintMetrics(os.Stdout, rep)
		if err := bench.VerifyDecomposition(rep); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		writeRecord("BENCH_metrics.json", rep)
		return
	}

	if *chaos != "" {
		domains := []string{*chaos}
		if *chaos == "all" {
			domains = bench.ChaosDomains
		}
		seeds := *chaosSeeds
		if *quick {
			seeds = 1
		}
		ok := true
		for _, d := range domains {
			rep, err := bench.Chaos(d, seeds, *quick)
			if err != nil {
				fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
				os.Exit(2)
			}
			bench.FprintChaos(os.Stdout, rep)
			for _, r := range rep.Runs {
				ok = ok && r.OK
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *auditFlag {
		runs := bench.AuditSweep(*quick)
		bench.FprintAudit(os.Stdout, runs)
		for _, r := range runs {
			if !r.OK {
				os.Exit(1)
			}
		}
		return
	}

	if *ablations {
		for _, f := range bench.Ablations() {
			emit(f)
		}
		return
	}

	latSizes := bench.DefaultLatencySizes()
	credits := bench.DefaultCredits()
	bwSizes := bench.DefaultBandwidthSizes()
	fileSizes := bench.DefaultFileSizes()
	respSizes := bench.DefaultResponseSizes()
	matSizes := bench.DefaultMatrixSizes()
	if *quick {
		latSizes = []int{4, 1024}
		credits = []int{1, 32}
		bwSizes = []int{64 << 10}
		fileSizes = []int{4 << 20}
		respSizes = []int{1024}
		matSizes = []int{128}
	}

	runners := []struct {
		id  string
		run func() bench.Figure
	}{
		{"fig11", func() bench.Figure { return bench.Fig11LatencyAlternatives(latSizes) }},
		{"fig12", func() bench.Figure { return bench.Fig12CreditSweep(credits) }},
		{"fig13", func() bench.Figure { return bench.Fig13Latency(latSizes) }},
		{"fig13b", func() bench.Figure { return bench.Fig13Bandwidth(bwSizes) }},
		{"fig14", func() bench.Figure { return bench.Fig14FTP(fileSizes) }},
		{"fig15", func() bench.Figure { return bench.Fig15WebHTTP10(respSizes) }},
		{"fig16", func() bench.Figure { return bench.Fig16WebHTTP11(respSizes) }},
		{"fig17", func() bench.Figure { return bench.Fig17Matmul(matSizes) }},
	}

	want := strings.ToLower(*figFlag)
	matched := false
	for _, r := range runners {
		if want != "all" && !strings.HasPrefix(r.id, want) {
			continue
		}
		matched = true
		emit(r.run())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "reproduce: unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}

// writeRecord writes v as the named BENCH_*.json record in the working
// directory and says so, exiting on failure.
func writeRecord(name string, v any) {
	blob, err := bench.RecordJSON(v)
	if err == nil {
		err = os.WriteFile(name, blob, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", name)
}

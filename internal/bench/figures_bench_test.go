// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation section, plus the ablations. The simulation is
// deterministic, so each iteration reproduces identical virtual-time
// results; the benchmarks report the *simulated* metrics (latency in
// virtual microseconds, bandwidth in Mbps) via ReportMetric — wall-clock
// ns/op measures only how fast the simulator itself runs.
//
//	go test -bench=. -benchmem ./internal/bench
package bench

import "testing"

func BenchmarkFig11LatencyAlternatives(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig11LatencyAlternatives([]int{4})
	}
	b.ReportMetric(fig.value("DS", 4), "us-DS-4B")
	b.ReportMetric(fig.value("DS_DA", 4), "us-DS_DA-4B")
	b.ReportMetric(fig.value("DS_DA_UQ", 4), "us-DS_DA_UQ-4B")
	b.ReportMetric(fig.value("DG", 4), "us-DG-4B")
	b.ReportMetric(fig.value("EMP", 4), "us-EMP-4B")
}

func BenchmarkFig12CreditSweep(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig12CreditSweep([]int{1, 32})
	}
	b.ReportMetric(fig.value("DS_DA", 1), "us-credit1")
	b.ReportMetric(fig.value("DS_DA", 32), "us-credit32")
}

func BenchmarkFig13Latency(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig13Latency([]int{4})
	}
	b.ReportMetric(fig.value("Datagram", 4), "us-DG-4B")
	b.ReportMetric(fig.value("DataStreaming", 4), "us-DS-4B")
	b.ReportMetric(fig.value("TCP", 4), "us-TCP-4B")
}

func BenchmarkFig13Bandwidth(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig13Bandwidth([]int{64 << 10})
	}
	x := float64(64 << 10)
	b.ReportMetric(fig.value("DataStreaming", x), "Mbps-DS")
	b.ReportMetric(fig.value("TCP-16KB", x), "Mbps-TCP16K")
	b.ReportMetric(fig.value("TCP-256KB", x), "Mbps-TCP256K")
	b.ReportMetric(fig.value("EMP", x), "Mbps-EMP")
}

func BenchmarkFig14FTP(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig14FTP([]int{16 << 20})
	}
	x := float64(16 << 20)
	b.ReportMetric(fig.value("DataStreaming", x), "Mbps-DS")
	b.ReportMetric(fig.value("Datagram", x), "Mbps-DG")
	b.ReportMetric(fig.value("TCP", x), "Mbps-TCP")
}

func BenchmarkFig15WebHTTP10(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig15WebHTTP10([]int{1024})
	}
	b.ReportMetric(fig.value("DataStreaming", 1024), "us-DS")
	b.ReportMetric(fig.value("TCP", 1024), "us-TCP")
}

func BenchmarkFig16WebHTTP11(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig16WebHTTP11([]int{1024})
	}
	b.ReportMetric(fig.value("DataStreaming", 1024), "us-DS")
	b.ReportMetric(fig.value("TCP", 1024), "us-TCP")
}

func BenchmarkFig17Matmul(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig17Matmul([]int{256})
	}
	b.ReportMetric(fig.value("DataStreaming", 256), "ms-DS")
	b.ReportMetric(fig.value("TCP", 256), "ms-TCP")
}

func BenchmarkAblationCommThread(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = ablationCommThread()
	}
	b.ReportMetric(fig.value("eager (adopted)", 4), "us-eager")
	b.ReportMetric(fig.value("comm thread", 4), "us-thread")
}

func BenchmarkAblationRendezvous(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = ablationRendezvous()
	}
	b.ReportMetric(fig.value("eager", 4), "us-eager")
	b.ReportMetric(fig.value("rendezvous", 4), "us-rendezvous")
}

func BenchmarkAblationPiggyback(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = ablationPiggyback()
	}
	b.ReportMetric(fig.value("piggyback on", 256), "acks-on")
	b.ReportMetric(fig.value("piggyback off", 256), "acks-off")
}

func BenchmarkAblationTCPBuffers(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = ablationTCPBuffers()
	}
	b.ReportMetric(fig.value("TCP", float64(16<<10)), "Mbps-16K")
	b.ReportMetric(fig.value("TCP", float64(256<<10)), "Mbps-256K")
}

func BenchmarkAblationCreditVsConnSetup(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = ablationCreditVsConnSetup()
	}
	b.ReportMetric(fig.value("DataStreaming", 4), "us-credit4")
	b.ReportMetric(fig.value("DataStreaming", 32), "us-credit32")
}

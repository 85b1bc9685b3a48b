package bench

import (
	"strings"
	"testing"
)

func TestFig11ShapeMatchesPaper(t *testing.T) {
	fig := Fig11LatencyAlternatives([]int{4, 1024})
	ds := fig.value("DS", 4)
	da := fig.value("DS_DA", 4)
	uq := fig.value("DS_DA_UQ", 4)
	dg := fig.value("DG", 4)
	emp := fig.value("EMP", 4)
	if !(ds > da && da > uq && uq > dg && dg > emp) {
		t.Fatalf("figure 11 ordering violated: DS=%.1f DS_DA=%.1f DS_DA_UQ=%.1f DG=%.1f EMP=%.1f",
			ds, da, uq, dg, emp)
	}
	// Anchor values.
	if uq < 32 || uq > 42 {
		t.Fatalf("DS_DA_UQ at 4B = %.1f us, paper ~37", uq)
	}
	if dg < 26 || dg > 33 {
		t.Fatalf("DG at 4B = %.1f us, paper ~28.5", dg)
	}
	if emp < 24 || emp > 32 {
		t.Fatalf("EMP at 4B = %.1f us, paper ~28", emp)
	}
	if dg-emp > 4 {
		t.Fatalf("DG should sit ~1us over EMP; gap %.1f", dg-emp)
	}
}

func TestFig12Monotone(t *testing.T) {
	fig := Fig12CreditSweep([]int{1, 4, 32})
	l1 := fig.value("DS_DA", 1)
	l4 := fig.value("DS_DA", 4)
	l32 := fig.value("DS_DA", 32)
	if !(l1 > l4 && l4 >= l32) {
		t.Fatalf("figure 12 should fall with credits: 1=%.1f 4=%.1f 32=%.1f", l1, l4, l32)
	}
}

func TestFig13RatiosMatchPaper(t *testing.T) {
	lat := Fig13Latency([]int{4})
	tcp := lat.value("TCP", 4)
	dg := lat.value("Datagram", 4)
	ds := lat.value("DataStreaming", 4)
	if r := tcp / dg; r < 3.0 || r > 5.5 {
		t.Fatalf("TCP/DG latency ratio %.1f, paper 4.2", r)
	}
	if r := tcp / ds; r < 2.4 || r > 4.5 {
		t.Fatalf("TCP/DS latency ratio %.1f, paper 3.4", r)
	}

	bw := Fig13Bandwidth([]int{64 << 10})
	dsBW := bw.value("DataStreaming", 64<<10)
	tcp16 := bw.value("TCP-16KB", 64<<10)
	tcp256 := bw.value("TCP-256KB", 64<<10)
	if dsBW < 780 {
		t.Fatalf("substrate peak %.0f Mbps, paper >840", dsBW)
	}
	if tcp16 < 250 || tcp16 > 430 {
		t.Fatalf("TCP 16KB %.0f Mbps, paper ~340", tcp16)
	}
	if tcp256 < 450 || tcp256 > 650 {
		t.Fatalf("TCP 256KB %.0f Mbps, paper ~550", tcp256)
	}
	if !(dsBW > tcp256 && tcp256 > tcp16) {
		t.Fatalf("bandwidth ordering violated: DS=%.0f TCP256=%.0f TCP16=%.0f", dsBW, tcp256, tcp16)
	}
}

func TestFig14FTPShape(t *testing.T) {
	fig := Fig14FTP([]int{16 << 20})
	ds := fig.value("DataStreaming", 16<<20)
	dgv := fig.value("Datagram", 16<<20)
	tcp := fig.value("TCP", 16<<20)
	if ds == 0 || dgv == 0 || tcp == 0 {
		t.Fatalf("missing data: ds=%.0f dg=%.0f tcp=%.0f", ds, dgv, tcp)
	}
	if ds/tcp < 1.4 {
		t.Fatalf("FTP substrate/TCP ratio %.2f, paper ~2x", ds/tcp)
	}
	// DS and DG overlap under file-system overhead (within ~20%).
	if rel := ds / dgv; rel < 0.8 || rel > 1.25 {
		t.Fatalf("DS (%.0f) and DG (%.0f) should overlap in FTP", ds, dgv)
	}
	// Below the raw socket peak (file-system overhead).
	if ds > 800 {
		t.Fatalf("FTP at %.0f Mbps should sit below the raw socket peak", ds)
	}
}

func TestFig15And16Shape(t *testing.T) {
	f15 := Fig15WebHTTP10([]int{1024})
	tcp := f15.value("TCP", 1024)
	ds := f15.value("DataStreaming", 1024)
	if tcp == 0 || ds == 0 {
		t.Fatal("missing web data")
	}
	if tcp/ds < 1.8 {
		t.Fatalf("HTTP/1.0 ratio %.2f, want substrate clearly ahead", tcp/ds)
	}
	f16 := Fig16WebHTTP11([]int{1024})
	tcp11 := f16.value("TCP", 1024)
	ds11 := f16.value("DataStreaming", 1024)
	if tcp11 >= tcp {
		t.Fatalf("HTTP/1.1 should improve TCP: 1.0=%.0f 1.1=%.0f", tcp, tcp11)
	}
	if ds11 >= tcp11 {
		t.Fatalf("substrate should still win under HTTP/1.1: ds=%.0f tcp=%.0f", ds11, tcp11)
	}
	if (tcp11 - ds11) >= (tcp - ds) {
		t.Fatalf("keep-alive should shrink the absolute gap: 1.0=%.0f 1.1=%.0f", tcp-ds, tcp11-ds11)
	}
}

func TestFig17Shape(t *testing.T) {
	fig := Fig17Matmul([]int{128, 256})
	for _, n := range []float64{128, 256} {
		ds := fig.value("DataStreaming", n)
		tcp := fig.value("TCP", n)
		if ds == 0 || tcp == 0 {
			t.Fatalf("missing matmul data at N=%v", n)
		}
		if ds >= tcp {
			t.Fatalf("substrate matmul (%.2fms) should beat TCP (%.2fms) at N=%v", ds, tcp, n)
		}
	}
	// Relative advantage shrinks as compute dominates.
	adv128 := fig.value("TCP", 128) / fig.value("DataStreaming", 128)
	adv256 := fig.value("TCP", 256) / fig.value("DataStreaming", 256)
	if adv256 > adv128 {
		t.Fatalf("matmul advantage should shrink with N: 128=%.2f 256=%.2f", adv128, adv256)
	}
}

func TestAblationsRun(t *testing.T) {
	ct := ablationCommThread()
	base := ct.value("eager (adopted)", 4)
	threaded := ct.value("comm thread", 4)
	if threaded < base+15 {
		t.Fatalf("comm thread should add ~20us: base=%.1f threaded=%.1f", base, threaded)
	}
	rend := ablationRendezvous()
	if rend.value("rendezvous", 4) < 2*rend.value("eager", 4) {
		t.Fatalf("rendezvous should far exceed eager at 4B")
	}
	pb := ablationPiggyback()
	if on, off := pb.value("piggyback on", 256), pb.value("piggyback off", 256); on >= off {
		t.Fatalf("piggybacking should cut explicit acks: on=%.0f off=%.0f", on, off)
	}
	jf := ablationJumboFrames()
	jbase := jf.value("1500B, 1 rx cpu", float64(64<<10))
	jumbo := jf.value("9000B, 1 rx cpu", float64(64<<10))
	twoCPU := jf.value("1500B, 2 rx cpus", float64(64<<10))
	if jumbo < jbase+80 {
		t.Fatalf("jumbo frames should add ~150 Mbps: base=%.0f jumbo=%.0f", jbase, jumbo)
	}
	if jumbo < 940 || jumbo > 1000 {
		t.Fatalf("jumbo bandwidth %.0f Mbps, EMP lineage reports ~964", jumbo)
	}
	if twoCPU <= jbase {
		t.Fatalf("a second receive CPU should help: base=%.0f two=%.0f", jbase, twoCPU)
	}
	udp := extUDPComparison()
	udpLat := udp.value("UDP (kernel)", 4)
	dgLat := udp.value("Datagram (substrate)", 4)
	if udpLat/dgLat < 2.5 {
		t.Fatalf("kernel UDP (%.0f us) should trail the substrate datagram (%.0f us) by the kernel-path gap", udpLat, dgLat)
	}
	kv := extDataCenter()
	if kv.value("TCP", 1024) <= kv.value("DataStreaming", 1024) {
		t.Fatal("the substrate should win the data-center workload")
	}
	tb := ablationTCPBuffers()
	if len(tb.Series[0].Points) < 5 {
		t.Fatal("tcp buffer sweep incomplete")
	}
	small := tb.value("TCP", float64(8<<10))
	big := tb.value("TCP", float64(256<<10))
	huge := tb.value("TCP", float64(512<<10))
	if big <= small {
		t.Fatalf("bigger buffers should help: 8K=%.0f 256K=%.0f", small, big)
	}
	if huge > big*1.15 {
		t.Fatalf("bandwidth should plateau: 256K=%.0f 512K=%.0f", big, huge)
	}
}

func TestFigurePrinting(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		PaperNote: "note",
		Series: []series{
			{Name: "a", Points: []point{{1, 2}, {float64(4 << 10), 3}}},
			{Name: "b", Points: []point{{1, 9}}},
		},
	}
	var sb strings.Builder
	fig.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"=== t: test ===", "paper: note", "4K", "9.00", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed figure missing %q:\n%s", want, out)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	fig := Figure{
		ID: "c", XLabel: "x",
		Series: []series{
			{Name: "a", Points: []point{{1, 2.5}, {2, 3}}},
			{Name: "b", Points: []point{{1, 9}}},
		},
	}
	var sb strings.Builder
	fig.CSV(&sb)
	want := "x,a,b\n1,2.5,9\n2,3,\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestFigurePlot(t *testing.T) {
	fig := Figure{
		Title: "t", XLabel: "x", YLabel: "us",
		Series: []series{
			{Name: "a", Points: []point{{4, 10}, {4096, 40}}},
			{Name: "b", Points: []point{{4, 30}, {4096, 90}}},
		},
	}
	var sb strings.Builder
	fig.Plot(&sb, 40, 10)
	out := sb.String()
	for _, want := range []string{"max y = 90.00", "* = a", "o = b", "(log)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	Figure{}.Plot(&empty, 40, 10)
	if !strings.Contains(empty.String(), "no data") {
		t.Fatal("empty figure should say so")
	}
}

func TestConnectionTimeFigure(t *testing.T) {
	fig := extConnectionTime()
	async := fig.value("substrate-async", 0)
	syncT := fig.value("substrate-sync", 1)
	tcp := fig.value("tcp", 2)
	if async <= 0 || syncT <= 0 || tcp <= 0 {
		t.Fatalf("missing data: async=%.1f sync=%.1f tcp=%.1f", async, syncT, tcp)
	}
	if !(async < syncT && syncT < tcp) {
		t.Fatalf("ordering violated: async=%.1f sync=%.1f tcp=%.1f", async, syncT, tcp)
	}
	if tcp < 150 || tcp > 320 {
		t.Fatalf("TCP connect %.0f us, paper says 200-250", tcp)
	}
	if async > 40 {
		t.Fatalf("async substrate connect %.0f us should be tens of microseconds", async)
	}
}

package emp

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// BenchmarkFirmwareStream streams 64 KB messages from one endpoint to
// another, each op one message, and reports the host time and heap
// allocations per data frame the sender's NIC puts on the wire: the
// firmware's per-frame cost on both NICs, plus the host procs that post
// and wait. The receiver keeps 16 receives posted ahead of the stream.
func BenchmarkFirmwareStream(b *testing.B) {
	const size, ahead = 64 << 10, 16
	bed := newBed()
	src, dst := bed.eps[0], bed.eps[1]
	n := b.N
	bed.eng.Spawn("recv", func(p *sim.Proc) {
		var posted [ahead]*RecvHandle // message i's receive is posted[i%ahead]
		for i := 0; i < min(ahead, n); i++ {
			posted[i] = dst.PostRecv(p, src.Addr(), 5, size, 100)
		}
		for i := 0; i < n; i++ {
			if _, st := dst.WaitRecv(p, posted[i%ahead]); st != StatusOK {
				b.Errorf("message %d: %v", i, st)
			}
			if i+ahead < n {
				posted[i%ahead] = dst.PostRecv(p, src.Addr(), 5, size, 100)
			}
		}
	})
	bed.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			src.Send(p, dst.Addr(), 5, size, nil, 10)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	bed.eng.Run()
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	frames := float64(bed.nics[0].TxFrames.Value)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/frames, "allocs/frame")
}

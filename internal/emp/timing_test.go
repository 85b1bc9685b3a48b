package emp

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestContendedFirmwareTimingPinned pins the completion instant of every
// message in a bidirectional exchange of 64 KB messages under 2% link
// loss. Both nodes send and receive at once, so each NIC's send CPU,
// receive CPU and retransmissions contend for its DMA engine; the send
// CPU's window waits time out and resend go-back-N. The instants (ns)
// were recorded from the firmware's earlier coroutine form, so any change
// to a charge's instant, the DMA engine's wake order or the window
// wait's timer moves them.
func TestContendedFirmwareTimingPinned(t *testing.T) {
	b := newBed(withLoss(0.02))
	b.eng.Seed(1)
	const msgs, size = 4, 64 << 10
	var recvd, sent [2][]sim.Time
	for i := 0; i < 2; i++ {
		me, peer := i, 1-i
		b.eng.Spawn("recv", func(p *sim.Proc) {
			hs := make([]*RecvHandle, 0, msgs)
			for j := 0; j < msgs; j++ {
				hs = append(hs, b.eps[me].PostRecv(p, b.eps[peer].Addr(), Tag(40+peer), size, BufKey(me+1)))
			}
			for _, h := range hs {
				if _, st := b.eps[me].WaitRecv(p, h); st != StatusOK {
					t.Errorf("node %d: recv %v", me, st)
				}
				recvd[me] = append(recvd[me], p.Now())
			}
		})
		b.eng.Spawn("send", func(p *sim.Proc) {
			for j := 0; j < msgs; j++ {
				if st := b.eps[me].Send(p, b.eps[peer].Addr(), Tag(40+me), size, nil, BufKey(me+11)); st != StatusOK {
					t.Errorf("node %d: send %v", me, st)
				}
				sent[me] = append(sent[me], p.Now())
			}
		})
	}
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	wantRecvd := [2][]sim.Time{
		{1332290, 3296630, 4244996, 7274018},
		{730090, 2268194, 4439074, 9437070},
	}
	wantSent := [2][]sim.Time{
		{669310, 2124196, 4309778, 8259230},
		{1179712, 3114580, 4100540, 6486006},
	}
	for i := 0; i < 2; i++ {
		if !slices.Equal(recvd[i], wantRecvd[i]) || !slices.Equal(sent[i], wantSent[i]) {
			t.Errorf("node %d: received at %v and sent at %v, want %v and %v",
				i, recvd[i], sent[i], wantRecvd[i], wantSent[i])
		}
	}
	if r0, r1 := b.eps[0].Retransmits.Value, b.eps[1].Retransmits.Value; r0 != 610 || r1 != 369 {
		t.Errorf("retransmitted %d and %d frames, want 610 and 369", r0, r1)
	}
	if ev := b.eng.Events(); ev != 14641 {
		t.Errorf("%d events fired, want 14641", ev)
	}
}

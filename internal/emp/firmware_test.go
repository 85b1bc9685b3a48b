package emp

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/nic"
	"repro/internal/sim"
)

func withNIC(cfg nic.Config) bedOpt {
	return func(b *testbed) { b.nicCfg = cfg }
}

func withRel(rel ReliabilityConfig) bedOpt {
	return func(b *testbed) { b.epCfg.Rel = rel }
}

// streamOnce streams msgs messages of msgSize and returns achieved Mbps.
func streamOnce(b *testbed, msgs, msgSize int) float64 {
	var start, end sim.Time
	b.eng.Spawn("recv", func(p *sim.Proc) {
		hs := make([]*RecvHandle, 0, msgs)
		for i := 0; i < msgs; i++ {
			hs = append(hs, b.eps[1].PostRecv(p, b.eps[0].Addr(), 5, msgSize, 100))
		}
		for _, h := range hs {
			b.eps[1].WaitRecv(p, h)
		}
		end = p.Now()
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			b.eps[0].Send(p, b.eps[1].Addr(), 5, msgSize, nil, 10)
		}
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if end <= start {
		return 0
	}
	return float64(msgs*msgSize) * 8 / end.Sub(start).Seconds() / 1e6
}

func TestJumboFramesRaiseBandwidth(t *testing.T) {
	std := streamOnce(newBed(), 64, 64<<10)
	jumbo := streamOnce(newBed(withNIC(nic.JumboConfig())), 64, 64<<10)
	if jumbo < std+80 {
		t.Fatalf("jumbo %0.f Mbps should clearly beat standard %.0f", jumbo, std)
	}
	if jumbo < 930 || jumbo > 1000 {
		t.Fatalf("jumbo bandwidth %.0f Mbps; the EMP lineage reports ~964", jumbo)
	}
}

func TestJumboLatencyRoundTrip(t *testing.T) {
	// Correctness at jumbo MTU: a multi-fragment message arrives intact
	// and uses fewer frames.
	b := newBed(withNIC(nic.JumboConfig()))
	const size = 100 << 10
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 3, size, 100)
		_, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 3, size, nil, 10)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK {
		t.Fatalf("jumbo message status %v", st)
	}
	// 100 KB at 8976 B/fragment = 12 frames (plus acks), far below the
	// 69 standard frames.
	if b.nics[0].TxFrames.Value > 20 {
		t.Fatalf("jumbo sender used %d frames for 100KB, want ~12", b.nics[0].TxFrames.Value)
	}
}

func TestMultiRxCPURaisesBandwidth(t *testing.T) {
	cfg := nic.DefaultConfig()
	cfg.RxCPUs = 2
	one := streamOnce(newBed(), 64, 64<<10)
	two := streamOnce(newBed(withNIC(cfg)), 64, 64<<10)
	if two <= one {
		t.Fatalf("2 rx CPUs (%.0f Mbps) should beat 1 (%.0f)", two, one)
	}
}

func TestDestinationWindowBoundsInflight(t *testing.T) {
	// The per-destination window must hold even when many small
	// messages are posted back to back (the pattern that collapsed
	// into a retransmission storm before the window was added).
	rel := DefaultReliability()
	rel.SendWindow = 8
	b := newBed(withRel(rel))
	maxSeen := 0
	b.eng.Spawn("monitor", func(p *sim.Proc) {
		for i := 0; i < 4000; i++ {
			if v := b.eps[0].fw.destInflight[b.eps[1].Addr()]; v > maxSeen {
				maxSeen = v
			}
			p.Sleep(2 * sim.Microsecond)
		}
	})
	if got := streamOnce(b, 256, 4096); got == 0 {
		t.Fatal("stream did not complete")
	}
	if maxSeen > 8 {
		t.Fatalf("destination inflight reached %d, window is 8", maxSeen)
	}
	if b.eps[0].Retransmits.Value != 0 {
		t.Fatalf("lossless stream retransmitted %d frames", b.eps[0].Retransmits.Value)
	}
}

func TestInflightDrainsToZero(t *testing.T) {
	b := newBed()
	streamOnce(b, 32, 16<<10)
	if n := len(b.eps[0].fw.destInflight); n != 0 {
		t.Fatalf("inflight map not drained: %v", b.eps[0].fw.destInflight)
	}
	if n := len(b.eps[0].fw.records); n != 0 {
		t.Fatalf("%d transmission records leaked", n)
	}
}

func TestRetryBudgetResetsOnProgress(t *testing.T) {
	// Under sustained loss a long transfer makes steady progress; the
	// per-record retry budget must reset on every acknowledgment
	// advance rather than accumulate over the whole message.
	rel := DefaultReliability()
	rel.MaxRetries = 6 // tight: would fail a 300-frag message without resets
	b := newBed(withLoss(0.03), withRel(rel))
	b.eng.Seed(5)
	var st Status
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 3, 400<<10, 100)
		_, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 3, 400<<10, nil, 10)
	})
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if st != StatusOK {
		t.Fatalf("long transfer under loss: %v (retries must reset on progress)", st)
	}
}

func TestNackTriggersFastRecovery(t *testing.T) {
	// With a gap in the fragment stream the receiver NACKs and the
	// sender recovers well before the retransmission timeout.
	b := newBed(withLoss(0.08))
	b.eng.Seed(31)
	var done sim.Time
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 3, 64<<10, 100)
		if _, st := b.eps[1].WaitRecv(p, h); st == StatusOK {
			done = p.Now()
		}
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 3, 64<<10, nil, 10)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Second))
	if done == 0 {
		t.Fatal("message not delivered under loss")
	}
	if b.eps[1].NacksSent.Value == 0 {
		t.Fatal("expected NACKs for dropped fragments at 8% loss on a 45-fragment message")
	}
}

func TestDuplicateCompletedMessageReAcked(t *testing.T) {
	// Directly exercise the completed-set re-ack: inject a duplicate
	// data frame for an already-delivered message and verify the
	// receiver re-acks instead of delivering twice.
	b := newBed()
	var first Message
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 7, 64, 100)
		first, _ = b.eps[1].WaitRecv(p, h)
		// Post a second descriptor with the same tag: a duplicate must
		// NOT consume it.
		h2 := b.eps[1].PostRecv(p, AnySource, 7, 64, 100)
		_ = h2
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 7, 8, "original", 10)
	})
	b.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if first.Data != "original" {
		t.Fatalf("original not delivered: %v", first.Data)
	}
	acksBefore := b.eps[1].AcksSent.Value
	// Replay the data frame (late duplicate after a lost final ack).
	dup := &ethernet.Frame{
		Src: b.eps[0].Addr(), Dst: b.eps[1].Addr(),
		PayloadLen: wireBytes(8),
		Payload: &WireFrame{
			Kind: DataFrame, Src: b.eps[0].Addr(), Tag: 7,
			MsgID: 1, Seq: 0, NFrag: 1, MsgLen: 8, FragLen: 8, Data: "dup",
		},
	}
	b.eng.After(0, func() { b.nics[1].Deliver(dup) })
	b.eng.RunUntil(sim.Time(200 * sim.Millisecond))
	if b.eps[1].AcksSent.Value != acksBefore+1 {
		t.Fatalf("duplicate frame should trigger exactly one re-ack (%d -> %d)",
			acksBefore, b.eps[1].AcksSent.Value)
	}
	if b.eps[1].MsgsDelivered.Value != 1 {
		t.Fatalf("duplicate delivered twice: %d", b.eps[1].MsgsDelivered.Value)
	}
}

func TestPeekAndPurgeUnexpected(t *testing.T) {
	b := newBed(withUQ(8))
	b.eng.Spawn("send", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 9, 64, "stale", 10)
		b.eps[0].Send(p, b.eps[1].Addr(), 10, 64, "keep", 10)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if !b.eps[1].PeekUnexpected(b.eps[0].Addr(), 9) {
		t.Fatal("peek should see the tag-9 message")
	}
	if b.eps[1].PeekUnexpected(b.eps[0].Addr(), 11) {
		t.Fatal("peek matched a tag never sent")
	}
	purged := b.eps[1].PurgeUnexpected(func(src ethernet.Addr, tag Tag) bool {
		return tag == 10
	})
	if purged != 1 {
		t.Fatalf("purged %d, want 1", purged)
	}
	if b.eps[1].PeekUnexpected(b.eps[0].Addr(), 9) {
		t.Fatal("tag-9 message survived the purge")
	}
	if !b.eps[1].PeekUnexpected(b.eps[0].Addr(), 10) {
		t.Fatal("tag-10 message should have been kept")
	}
	// The purged slot must be reusable.
	b.eng.Spawn("send2", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 12, 64, nil, 10)
	})
	b.eng.RunUntil(sim.Time(20 * sim.Millisecond))
	if !b.eps[1].PeekUnexpected(b.eps[0].Addr(), 12) {
		t.Fatal("slot freed by purge was not reusable")
	}
}

func TestUnexpectedNotifyFires(t *testing.T) {
	b := newBed(withUQ(4))
	cond := sim.NewCond(b.eng, "uq-notify")
	b.eps[1].SetUnexpectedNotify(cond)
	var wokenAt sim.Time
	b.eng.Spawn("waiter", func(p *sim.Proc) {
		cond.WaitFor(p, func() bool {
			return b.eps[1].PeekUnexpected(b.eps[0].Addr(), 5)
		})
		wokenAt = p.Now()
	})
	b.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		b.eps[0].Send(p, b.eps[1].Addr(), 5, 32, nil, 10)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if wokenAt == 0 {
		t.Fatal("unexpected-queue arrival did not wake the waiter")
	}
	if us := wokenAt.Micros(); us > 300 {
		t.Fatalf("waiter woke at %v, long after the arrival", wokenAt)
	}
}

func TestSendFailureAfterRetriesExhausted(t *testing.T) {
	// A message into the void (no descriptor, no UQ, tiny retry budget)
	// must fail cleanly and release its window slots.
	rel := DefaultReliability()
	rel.MaxRetries = 2
	rel.RTO = 100 * sim.Microsecond
	b := newBed(withRel(rel))
	var st Status
	b.eng.Spawn("send", func(p *sim.Proc) {
		h := b.eps[0].PostSend(p, b.eps[1].Addr(), 3, 1024, nil, 10)
		st = b.eps[0].WaitSend(p, h) // local completion still succeeds
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusOK {
		t.Fatalf("local send completion should be OK, got %v", st)
	}
	if b.eps[0].SendsFailed.Value != 1 {
		t.Fatalf("sendsFailed = %d, want 1", b.eps[0].SendsFailed.Value)
	}
	if len(b.eps[0].fw.destInflight) != 0 {
		t.Fatalf("failed send leaked window slots: %v", b.eps[0].fw.destInflight)
	}
}

func TestBidirectionalUnderLoss(t *testing.T) {
	b := newBed(withLoss(0.03))
	b.eng.Seed(17)
	finished := 0
	for i := 0; i < 2; i++ {
		me, peer := i, 1-i
		b.eng.Spawn("node", func(p *sim.Proc) {
			const msgs = 10
			handles := make([]*RecvHandle, 0, msgs)
			for j := 0; j < msgs; j++ {
				handles = append(handles, b.eps[me].PostRecv(p, b.eps[peer].Addr(), Tag(40+peer), 16<<10, BufKey(me+1)))
			}
			for j := 0; j < msgs; j++ {
				b.eps[me].Send(p, b.eps[peer].Addr(), Tag(40+me), 16<<10, nil, BufKey(me+11))
			}
			for _, h := range handles {
				if _, st := b.eps[me].WaitRecv(p, h); st != StatusOK {
					t.Errorf("node %d recv %v", me, st)
				}
			}
			finished++
		})
	}
	b.eng.RunUntil(sim.Time(60 * sim.Second))
	if finished != 2 {
		t.Fatalf("%d/2 nodes finished under bidirectional loss", finished)
	}
}

func TestShutdownStopsFirmwareLoops(t *testing.T) {
	b := newBed()
	b.eng.Spawn("driver", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 1, 0, nil, KeyNone)
		p.Sleep(100 * sim.Microsecond)
		b.eps[0].Shutdown()
		b.eps[1].Shutdown()
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if live := b.eng.LiveProcs(); live != 0 {
		t.Fatalf("%d firmware processes still live after shutdown: %v", live, b.eng.BlockedProcs())
	}
}

func TestHandleAccessorsAndStrings(t *testing.T) {
	b := newBed(withUQ(4))
	var sh *SendHandle
	var rh *RecvHandle
	b.eng.Spawn("p", func(p *sim.Proc) {
		rh = b.eps[1].PostRecv(p, AnySource, 5, 64, 1)
		c := sim.NewCond(b.eng, "n")
		rh.SetNotify(c)
		sh = b.eps[0].PostSend(p, b.eps[1].Addr(), 5, 16, "x", 2)
	})
	b.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if sh.Status() != StatusOK || rh.Status() != StatusOK {
		t.Fatalf("statuses: send=%v recv=%v", sh.Status(), rh.Status())
	}
	if rh.Message().Data != "x" {
		t.Fatalf("message accessor: %v", rh.Message().Data)
	}
	for _, k := range []FrameKind{DataFrame, AckFrame, NackFrame, FrameKind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	for _, s := range []Status{StatusPending, StatusOK, StatusFailed, StatusCancelled, StatusTruncated, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestPollUnexpectedDirect(t *testing.T) {
	b := newBed(withUQ(4))
	var got Message
	var ok, missOK bool
	b.eng.Spawn("send", func(p *sim.Proc) {
		b.eps[0].Send(p, b.eps[1].Addr(), 9, 32, "parked", 1)
	})
	b.eng.Spawn("poll", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		_, missOK = b.eps[1].PollUnexpected(p, b.eps[0].Addr(), 10, 64) // wrong tag
		got, ok = b.eps[1].PollUnexpected(p, b.eps[0].Addr(), 9, 64)
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if missOK {
		t.Fatal("poll matched the wrong tag")
	}
	if !ok || got.Data != "parked" {
		t.Fatalf("poll = %v, %v", got.Data, ok)
	}
	if b.eps[1].UnexpectedQueued() != 0 {
		t.Fatal("claimed entry still queued")
	}
}

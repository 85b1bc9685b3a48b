package emp

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// TestSendFailureObservableAfterPeerDeath is the regression test for the
// failure-detection path: when the peer NIC dies mid-run, the sender's
// retry budget must exhaust in bounded simulated time and the failure
// must be visible at the endpoint API — through the emp-send-failed
// event, the SendsFailed counter, and (for a window-blocked
// multi-fragment send) a StatusFailed completion.
func TestSendFailureObservableAfterPeerDeath(t *testing.T) {
	b := newBed()

	var (
		notifyDst  ethernet.Addr = -99
		notifyTag  Tag
		notifyAt   sim.Time
		sendStatus = StatusPending
		sendDoneAt sim.Time
	)
	b.eps[0].SetEventNotify(func(ev ProtoEvent) {
		if ev.Kind == "emp-send-failed" && notifyAt == 0 {
			notifyDst, notifyTag, notifyAt = ev.Dst, ev.Tag, b.eng.Now()
		}
	})

	// Kill the receiver before anything is posted: every fragment
	// vanishes on the dead NIC and no ack ever returns.
	b.eps[1].Kill()

	b.eng.Spawn("send", func(p *sim.Proc) {
		// Large enough to exceed the per-destination send window, so the
		// posting loop itself blocks on acknowledgments that never come
		// and the handle must complete StatusFailed (a small send
		// completes StatusOK locally at MAC handoff by design; its
		// failure surfaces via the event instead).
		size := (sendWindow + 4) * MaxFragPayload
		st := b.eps[0].Send(p, b.eps[1].Addr(), 9, size, "doomed", 100)
		sendStatus, sendDoneAt = st, p.Now()
	})
	b.eng.RunUntil(sim.Time(sim.Second))

	if sendStatus != StatusFailed {
		t.Fatalf("send to dead peer completed with status %v, want StatusFailed", sendStatus)
	}
	if notifyAt == 0 {
		t.Fatal("emp-send-failed event never fired")
	}
	if notifyDst != b.eps[1].Addr() || notifyTag != 9 {
		t.Fatalf("event for dst=%d tag=%d, want dst=%d tag=9", notifyDst, notifyTag, b.eps[1].Addr())
	}
	if b.eps[0].SendsFailed.Value == 0 {
		t.Fatalf("SendsFailed = 0 after retry exhaustion: %+v", b.eps[0].Counters)
	}
	// The retry budget bounds detection: maxRetries timeouts each capped
	// at maxRTO.
	bound := sim.Duration(maxRetries+2) * maxRTO
	if sim.Duration(sendDoneAt) > bound || sim.Duration(notifyAt) > bound {
		t.Fatalf("failure detection took %v (notify %v), budget bound %v",
			sim.Duration(sendDoneAt), sim.Duration(notifyAt), bound)
	}
}

// TestKillCancelsPostedReceives: a blocked WaitRecv on a dying endpoint
// must wake with StatusCancelled rather than hang, and posts after death
// must fail immediately.
func TestKillCancelsPostedReceives(t *testing.T) {
	b := newBed()
	var st Status = StatusPending
	b.eng.Spawn("recv", func(p *sim.Proc) {
		h := b.eps[1].PostRecv(p, AnySource, 5, 4096, 100)
		_, st = b.eps[1].WaitRecv(p, h)
	})
	b.eng.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		b.eps[1].Kill()
	})
	b.eng.RunUntil(sim.Time(sim.Second))
	if st != StatusCancelled {
		t.Fatalf("posted receive on killed endpoint completed %v, want StatusCancelled", st)
	}

	// Post-death operations complete immediately with failure statuses.
	b.eng.Spawn("after", func(p *sim.Proc) {
		if h := b.eps[1].PostRecv(p, AnySource, 5, 4096, 100); h.Status() != StatusCancelled {
			t.Errorf("PostRecv on dead endpoint: status %v", h.Status())
		}
		if st := b.eps[1].Send(p, b.eps[0].Addr(), 5, 100, nil, 100); st != StatusFailed {
			t.Errorf("Send on dead endpoint: status %v", st)
		}
	})
	b.eng.RunUntil(sim.Time(2 * sim.Second))
	if n := b.eps[1].PrepostedDescriptors(); n != 0 {
		t.Fatalf("%d descriptors leaked on killed endpoint", n)
	}
}

package emp

import (
	"repro/internal/ethernet"
	"repro/internal/sim"
)

// stage is one step of an activity: the firmware work between two
// charges of NIC time. It ends by naming the activity's next stage,
// through charge, a wait, or by setting next directly.
type stage func(a *activity)

// activity is one firmware execution context on the NIC: the send CPU,
// the receive CPU, or one retransmission that a timer or a NACK
// schedules. Like the Tigon2's CPUs, it runs each work item to
// completion, as a chain of stages. Every charge of NIC time ends a
// stage, and the next stage runs at the charged instant: in place when
// no queued event fires first (sim.Engine.AdvanceInPlace), otherwise
// from one queued resume event.
//
// Only an activity's own resume and timer events run its stages, so an
// in-place charge is always the last thing its event does. Waiting for
// work, for the DMA engine or for room in the send window parks the
// activity until a put, a release or a window change queues its resume
// at the current instant.
type activity struct {
	fw     *firmware
	next   stage // run when the activity is resumed
	parked bool  // waiting for an event, a put, the DMA engine or the window

	// A CPU's work queue. An idle CPU is parked on an empty queue; a
	// closed one refuses puts, but the items already queued still run.
	work   sim.Queue[workItem]
	idle   bool
	closed bool

	item workItem  // the work item in hand
	rec  *txRecord // the record being sent or resent

	winDeadline sim.Time  // the end of a send-window wait
	winTimer    sim.Event // its timeout, armed while the wait is parked

	frag       int          // the fragment sendFrag is handing to the MAC
	fragDone   stage        // run once it is handed over
	resendSeq  int          // the fragment resend is at
	resendDone stage        // run once every outstanding fragment is resent
	dmaHold    sim.Duration // how long the DMA transfer holds the engine
	dmaDone    stage        // run once the DMA transfer is over

	wf     *wireFrame  // the frame the receive CPU is processing
	r      *reassembly // its message's reassembly
	desc   *recvDesc   // the descriptor its first fragment matched
	walked int         // entries that match examined
	ctl    *wireFrame  // the ack or nack being generated
	ctlDst ethernet.Addr
}

// workItem is one unit of work for a CPU: a send post for the send CPU;
// a frame, a receive post, an unpost or freed unexpected-queue slots for
// the receive CPU.
type workItem struct {
	send   *txPost
	frame  *ethernet.Frame
	recv   *RecvHandle
	unpost *unpostOp
	uqFree int
}

// newCPU returns an idle CPU whose first stage, once work arrives, is
// serve.
func newCPU(fw *firmware, serve stage) activity {
	return activity{fw: fw, next: serve, parked: true, idle: true}
}

// run steps a through its stages until it parks.
func (a *activity) run() {
	for !a.parked {
		a.next(a)
	}
}

// resumeActivity is the fn of every event that resumes an activity; its
// arg is the *activity, so a resume allocates nothing.
func resumeActivity(x any) {
	a := x.(*activity)
	a.parked = false
	a.run()
}

// wake queues a's resume at the current instant.
func (a *activity) wake() {
	e := a.fw.eng
	e.AtArg(e.Now(), resumeActivity, a)
}

// charge ends the current stage with d of NIC time: next runs d later,
// in place when nothing queued fires first.
func (a *activity) charge(d sim.Duration, next stage) {
	a.next = next
	e := a.fw.eng
	at := e.Now().Add(max(d, 0))
	if !e.AdvanceInPlace(at) {
		a.parked = true
		e.AtArg(at, resumeActivity, a)
	}
}

// wedged charges the rest of a fault-plan wedge of the NIC's firmware
// and reports true, with again to run at its end: wedge windows can
// abut, so the check is made again. A healthy NIC reports false.
func (a *activity) wedged(again stage) bool {
	d := a.fw.n.WedgeRemaining()
	if d <= 0 {
		return false
	}
	a.charge(d, again)
	return true
}

// put queues an item for the CPU, and wakes the CPU at the current
// instant if it idles. It reports false once the CPU is closed.
func (a *activity) put(it workItem) bool {
	if a.closed {
		return false
	}
	a.work.Push(it)
	if a.idle {
		a.idle = false
		a.wake()
	}
	return true
}

// take moves the next queued item into a.item and reports true, or
// parks the CPU idle on its empty queue, next to run again at the
// following put.
func (a *activity) take() bool {
	if a.work.Len() == 0 {
		a.idle, a.parked = true, true
		return false
	}
	a.item = a.work.Pop()
	return true
}

// close makes every later put fail. The items already queued still run,
// under the dead-endpoint guards; an idle CPU has none and stays parked.
func (a *activity) close() { a.closed = true }

// --- The DMA engine ---------------------------------------------------------

// dma moves bytes between host memory and the NIC, then runs done. A
// fault plan may stall the engine first. The CPUs and the
// retransmissions share the one engine: each transfer holds it for its
// whole time, and a release wakes the oldest waiter.
func (a *activity) dma(bytes int, done stage) {
	stall, hold := a.fw.n.DMA(bytes)
	a.dmaHold, a.dmaDone = hold, done
	if stall > 0 {
		a.charge(stall, dmaTake)
		return
	}
	a.next = dmaTake
}

// dmaTake takes the engine for the transfer, or waits at the back of
// the line. A woken waiter runs dmaTake again: another activity may
// have taken the engine between the release and the resume.
func dmaTake(a *activity) {
	fw := a.fw
	if fw.dmaBusy {
		fw.dmaWaiters.Push(a)
		a.parked = true
		return
	}
	fw.dmaBusy = true
	a.charge(a.dmaHold, dmaRelease)
}

// dmaRelease frees the engine and wakes its oldest waiter.
func dmaRelease(a *activity) {
	fw := a.fw
	fw.dmaBusy = false
	if fw.dmaWaiters.Len() > 0 {
		fw.dmaWaiters.Pop().wake()
	}
	a.next = a.dmaDone
}

// --- The send window --------------------------------------------------------

// waitWindow waits up to the record's retransmission timeout for room
// in its destination's window, or for the record to fail, then goes
// back to sendFrags. A wait that times out with the record's own
// fragments unacknowledged resends them first (go-back-N); a stall
// caused purely by other records' in-flight fragments is not this
// record's failure and burns no retry.
func (a *activity) waitWindow() {
	a.winDeadline = a.fw.eng.Now().Add(a.rec.rto)
	a.next = windowCheck
}

func (a *activity) windowOpen() bool {
	return a.fw.destInflight[a.rec.dst] < sendWindow || a.rec.failed
}

// windowCheck parks the send CPU until the window changes or the wait's
// deadline passes, then runs again; the timer is queued before the CPU
// is.
func windowCheck(a *activity) {
	a.next = sendFrags
	if a.windowOpen() {
		return
	}
	e := a.fw.eng
	if a.winDeadline <= e.Now() {
		if a.rec.sent > a.rec.acked {
			a.resend(sendFrags)
		}
		return
	}
	a.next = windowCheck
	a.winTimer = e.AtArg(a.winDeadline, windowTimer, a)
	a.fw.windowWaiter = a
	a.parked = true
}

// windowTimer is the fn of a window wait's timer: the send CPU leaves
// the wait and checks again inside the timer event.
func windowTimer(x any) {
	a := x.(*activity)
	a.fw.windowWaiter = nil
	resumeActivity(a)
}

// windowChanged wakes the send CPU if it waits for room in a window,
// cancelling the wait's timer first; the CPU checks the window again.
func (fw *firmware) windowChanged() {
	if a := fw.windowWaiter; a != nil {
		fw.windowWaiter = nil
		a.winTimer.Cancel()
		a.wake()
	}
}

// Package faults defines deterministic, seed-stable fault schedules for
// the simulated fabric and cluster. A Plan is a set of time-windowed,
// per-link clauses (loss, duplication, corruption, reordering, link
// partition) plus node-crash entries; the switch evaluates the clauses
// per forwarded frame and the cluster schedules the crashes. All
// randomness comes from the engine-owned PRNG handed to Eval, so the
// same seed always yields the same fault sequence, and a plan whose
// rates are all zero draws nothing — the happy path stays byte-identical
// with a plan installed.
package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Any matches every station address in a clause's Src/Dst filter. It
// aliases the Ethernet broadcast address (-1), which never appears as a
// unicast endpoint.
const Any = -1

// defaultReorderDelay is the extra delivery delay applied to a reordered
// frame when the clause does not set one: a few full-MTU wire times, so
// later frames genuinely overtake it.
const defaultReorderDelay = 40 * sim.Microsecond

// Clause applies fault rates to frames forwarded on matching links
// during [From, Until). Until <= 0 means "until the end of the run".
// The zero value matches only the (0, 0) self-link and injects nothing;
// use the constructors, or set Src/Dst to Any explicitly.
type Clause struct {
	From, Until sim.Duration
	// Src and Dst filter by frame addresses; Any matches all.
	Src, Dst int
	// Loss, Dup, Corrupt and Reorder are per-frame probabilities.
	Loss, Dup, Corrupt, Reorder float64
	// Partition drops every matching frame in the window (a dead link
	// or a flapping/segmented fabric), regardless of the rates.
	Partition bool
	// ReorderDelay is the extra delivery delay of a reordered frame;
	// zero selects a default of a few frame times.
	ReorderDelay sim.Duration
}

// crash kills a node (NIC and protocol state) at the given sim time.
type crash struct {
	Node int
	At   sim.Duration
}

// Restart crashes a node at At exactly as CrashAt does — descriptors,
// credits, firmware procs and demux tables destroyed, in-flight frames
// blackholed — then after Downtime rebuilds the node from scratch at
// the same fabric address under a bumped incarnation number: fresh NIC
// on the same switch port, fresh EMP endpoint, substrate and TCP
// stack, and the node's registered app bootstrap re-run so listeners
// resurrect. The schedule is pure data; the cluster performs the
// teardown and rebirth.
type Restart struct {
	Node     int
	At       sim.Duration
	Downtime sim.Duration
}

// LinkClause applies faults to one fabric trunk link (a switch-to-switch
// interconnect) during [From, Until). Down takes the link hard down for
// the window: frames already routed onto it are blackholed until the
// fabric's failure detector notices and reroutes around it. Loss and
// Delay degrade a nominally-up link (a dirty optic): matching frames are
// dropped or delayed per draw without tripping the failure detector.
// Link is the fabric trunk id (creation order), or Any for every trunk.
// Trunk links only — host access links are covered by the address-based
// Clause filters above.
type LinkClause struct {
	From, Until sim.Duration
	Link        int
	// Down takes the trunk hard down for the whole window.
	Down bool
	// Loss is the per-frame drop probability while the clause is active
	// (degraded link, not a dead one: no reroute is triggered).
	Loss float64
	// Delay is extra one-way latency added to every matching frame.
	Delay sim.Duration
}

// activeLink reports whether the clause's window covers now.
func (c *LinkClause) active(now sim.Duration) bool {
	if now < c.From {
		return false
	}
	return c.Until <= 0 || now < c.Until
}

// matches reports whether the clause covers the given trunk.
func (c *LinkClause) matches(link int) bool {
	return c.Link == Any || c.Link == link
}

// SwitchCrash kills fabric switch Switch (fabric switch id, creation
// order) at the given sim time: every frame inside it vanishes, its
// trunk links go down, and stations attached to it become unreachable
// until the fabric routes around it (possible only for switches without
// stations — spines).
type SwitchCrash struct {
	Switch int
	At     sim.Duration
}

// NICClause applies faults inside one host's NIC/firmware domain during
// [From, Until) — the failure modes that wound a host without touching
// the switch: dropped doorbells (the host's mailbox write is lost and
// must be re-rung), stalled DMA engines, descriptor bit flips that the
// receiver's FCS check catches, lost unexpected-queue deliveries (the
// EMP-acked message — typically a credit update — vanishes between
// firmware and host), and transient firmware wedges (both NIC CPUs stop
// scheduling until the window ends). Node is the cluster node index
// (NIC attach order), or Any for every node.
type NICClause struct {
	From, Until sim.Duration
	Node        int
	// DropDoorbell is the per-ring probability that a host mailbox
	// write is lost; the host's doorbell watchdog re-rings it after
	// a 100 µs retry, so the cost is latency, not loss.
	DropDoorbell float64
	// DMAStall is the per-transfer probability that the DMA engine
	// stalls for DMAStallFor before moving the data.
	DMAStall    float64
	DMAStallFor sim.Duration
	// FlipDesc is the per-fragment probability that a transmit
	// descriptor is corrupted: the frame goes out with a bad FCS and the
	// receiver drops it (EMP retransmission recovers).
	FlipDesc float64
	// LoseUnexpected is the per-delivery probability that a completed
	// unexpected-queue message is lost between firmware and host —
	// after EMP has acknowledged it, so no retransmission will ever
	// resend it. Credit updates riding the UQ are the classic victim;
	// only the substrate's credit-reconciliation sweep heals the drift.
	LoseUnexpected float64
	// Wedge stalls both firmware CPUs (send, receive, and the
	// retransmit scheduler) for the whole window.
	Wedge bool
}

// active reports whether the clause's window covers now.
func (c *NICClause) active(now sim.Duration) bool {
	if now < c.From {
		return false
	}
	return c.Until <= 0 || now < c.Until
}

// matches reports whether the clause covers the given node.
func (c *NICClause) matches(node int) bool {
	return c.Node == Any || c.Node == node
}

// Plan is a complete fault schedule.
type Plan struct {
	Clauses []Clause
	NIC     []NICClause
	Crashes []crash
	// Links and SwitchCrashes wound the fabric itself (trunk links and
	// switches): the ethernet.Fabric schedules the Down windows and
	// crashes and evaluates the degrade rates per trunk crossing. Link
	// clauses need trunks, so they touch only multi-switch fabrics; a
	// single-switch cluster's only switch is switch 0.
	Links         []LinkClause
	SwitchCrashes []SwitchCrash
	// Restarts schedules whole-host crash–restart cycles: each entry
	// kills its node as CrashAt does and rebuilds it after the downtime
	// window. Purely schedule-driven — no randomness — so a plan with
	// no Restarts leaves every run byte-identical.
	Restarts []Restart
}

// HasRestarts reports whether the plan schedules any crash–restart
// cycles (used by drivers to pick the rebooting server harness).
func (pl *Plan) HasRestarts() bool { return pl != nil && len(pl.Restarts) > 0 }

// action is the outcome of evaluating a plan against one frame.
type action struct {
	Drop      bool
	Partition bool // Drop was caused by a partition clause
	Dup       bool
	Corrupt   bool
	Delay     sim.Duration // extra delivery delay (reordering)
}

// active reports whether the clause's window covers now.
func (c *Clause) active(now sim.Duration) bool {
	if now < c.From {
		return false
	}
	return c.Until <= 0 || now < c.Until
}

// matches reports whether the clause's link filter covers (src, dst).
func (c *Clause) matches(src, dst int) bool {
	return (c.Src == Any || c.Src == src) && (c.Dst == Any || c.Dst == dst)
}

// Eval combines all clauses matching a frame on link src->dst at time
// now. It draws from r only for positive rates of matching, active
// clauses, so an all-zero plan never perturbs the random sequence.
func (pl *Plan) Eval(r *sim.Rand, now sim.Duration, src, dst int) action {
	var act action
	if pl == nil {
		return act
	}
	for i := range pl.Clauses {
		c := &pl.Clauses[i]
		if !c.active(now) || !c.matches(src, dst) {
			continue
		}
		if c.Partition {
			act.Drop = true
			act.Partition = true
			return act
		}
		if c.Loss > 0 && r.Bool(c.Loss) {
			act.Drop = true
			return act
		}
		if c.Dup > 0 && r.Bool(c.Dup) {
			act.Dup = true
		}
		if c.Corrupt > 0 && r.Bool(c.Corrupt) {
			act.Corrupt = true
		}
		if c.Reorder > 0 && r.Bool(c.Reorder) {
			d := c.ReorderDelay
			if d <= 0 {
				d = defaultReorderDelay
			}
			if d > act.Delay {
				act.Delay = d
			}
		}
	}
	return act
}

// --- NIC-domain evaluation ------------------------------------------------
//
// Each hook draws from r only when a matching, active clause has a
// positive rate, mirroring Eval: a plan without NIC clauses (or with
// all-zero rates) never perturbs the random sequence, so the happy path
// stays byte-identical with a plan installed.

// nicFires walks the clauses covering node at now in plan order and
// reports whether one of them fires, drawing r.Bool at the clause's rate
// (read by rate) only when that rate is positive.
func (pl *Plan) nicFires(r *sim.Rand, now sim.Duration, node int, rate func(*NICClause) float64) bool {
	if pl == nil {
		return false
	}
	for i := range pl.NIC {
		c := &pl.NIC[i]
		if !c.active(now) || !c.matches(node) {
			continue
		}
		if p := rate(c); p > 0 && r.Bool(p) {
			return true
		}
	}
	return false
}

// NICDropDoorbell reports whether a host mailbox write to the given
// node's NIC is lost at time now.
func (pl *Plan) NICDropDoorbell(r *sim.Rand, now sim.Duration, node int) bool {
	return pl.nicFires(r, now, node, func(c *NICClause) float64 { return c.DropDoorbell })
}

// NICDMAStall reports the extra stall charged to one DMA transfer on the
// given node's NIC at time now (zero when the engine is healthy).
func (pl *Plan) NICDMAStall(r *sim.Rand, now sim.Duration, node int) sim.Duration {
	if pl == nil {
		return 0
	}
	var stall sim.Duration
	for i := range pl.NIC {
		c := &pl.NIC[i]
		if !c.active(now) || !c.matches(node) {
			continue
		}
		if c.DMAStall > 0 && r.Bool(c.DMAStall) && c.DMAStallFor > stall {
			stall = c.DMAStallFor
		}
	}
	return stall
}

// NICFlipDesc reports whether one transmit descriptor on the given
// node's NIC is corrupted at time now.
func (pl *Plan) NICFlipDesc(r *sim.Rand, now sim.Duration, node int) bool {
	return pl.nicFires(r, now, node, func(c *NICClause) float64 { return c.FlipDesc })
}

// NICLoseUnexpected reports whether one completed unexpected-queue
// delivery on the given node's NIC is lost at time now.
func (pl *Plan) NICLoseUnexpected(r *sim.Rand, now sim.Duration, node int) bool {
	return pl.nicFires(r, now, node, func(c *NICClause) float64 { return c.LoseUnexpected })
}

// NICWedgeRemaining reports how long the given node's firmware stays
// wedged from time now (zero when no wedge clause covers now). Purely
// schedule-driven — no randomness — so firmware procs can sleep exactly
// to the window's end.
func (pl *Plan) NICWedgeRemaining(now sim.Duration, node int) sim.Duration {
	if pl == nil {
		return 0
	}
	var until sim.Duration
	for i := range pl.NIC {
		c := &pl.NIC[i]
		if !c.Wedge || !c.active(now) || !c.matches(node) {
			continue
		}
		if c.Until <= 0 {
			// Open-ended wedge: the node is dead for practical purposes;
			// report a very long stall and let the caller re-check.
			return sim.Second
		}
		if c.Until > until {
			until = c.Until
		}
	}
	if until <= now {
		return 0
	}
	return until - now
}

// HasNIC reports whether the plan has any NIC-domain clauses (used by
// nic.NIC.SetFaults to leave a NIC without clauses on the healthy path,
// where no fault hook runs).
func (pl *Plan) HasNIC() bool { return pl != nil && len(pl.NIC) > 0 }

// --- Fabric-domain evaluation ----------------------------------------------

// linkAction is the degrade outcome of evaluating the plan's link
// clauses against one frame crossing a trunk.
type linkAction struct {
	Drop  bool
	Delay sim.Duration
}

// EvalLink combines the degrade rates (Loss, Delay) of every non-Down
// clause matching the trunk at time now. Down windows are not evaluated
// here — the fabric schedules those as hard link-state transitions. As
// with Eval, randomness is drawn only for positive rates of matching,
// active clauses.
func (pl *Plan) EvalLink(r *sim.Rand, now sim.Duration, link int) linkAction {
	var act linkAction
	if pl == nil {
		return act
	}
	for i := range pl.Links {
		c := &pl.Links[i]
		if c.Down || !c.active(now) || !c.matches(link) {
			continue
		}
		if c.Loss > 0 && r.Bool(c.Loss) {
			act.Drop = true
			return act
		}
		if c.Delay > act.Delay {
			act.Delay = c.Delay
		}
	}
	return act
}

// DownWindows returns the hard-down windows of the given trunk, in plan
// order: the fabric turns each into a pair of link-state transitions.
func (pl *Plan) DownWindows(link int) []LinkClause {
	if pl == nil {
		return nil
	}
	var out []LinkClause
	for i := range pl.Links {
		c := pl.Links[i]
		if c.Down && c.matches(link) {
			out = append(out, c)
		}
	}
	return out
}

// Validate reports the first malformed rate or window in the plan:
// NaN, negative or >1 probabilities, and inverted time windows.
func (pl *Plan) Validate() error {
	if pl == nil {
		return nil
	}
	for i := range pl.Clauses {
		c := &pl.Clauses[i]
		for _, rv := range []struct {
			name string
			v    float64
		}{{"Loss", c.Loss}, {"Dup", c.Dup}, {"Corrupt", c.Corrupt}, {"Reorder", c.Reorder}} {
			if math.IsNaN(rv.v) || rv.v < 0 || rv.v > 1 {
				return fmt.Errorf("faults: clause %d has invalid %s rate %v", i, rv.name, rv.v)
			}
		}
		if c.Until > 0 && c.Until < c.From {
			return fmt.Errorf("faults: clause %d window inverted (%v .. %v)", i, c.From, c.Until)
		}
	}
	for i := range pl.NIC {
		c := &pl.NIC[i]
		for _, rv := range []struct {
			name string
			v    float64
		}{{"DropDoorbell", c.DropDoorbell}, {"DMAStall", c.DMAStall},
			{"FlipDesc", c.FlipDesc}, {"LoseUnexpected", c.LoseUnexpected}} {
			if math.IsNaN(rv.v) || rv.v < 0 || rv.v > 1 {
				return fmt.Errorf("faults: NIC clause %d has invalid %s rate %v", i, rv.name, rv.v)
			}
		}
		if c.Until > 0 && c.Until < c.From {
			return fmt.Errorf("faults: NIC clause %d window inverted (%v .. %v)", i, c.From, c.Until)
		}
		if c.Wedge && c.Until <= 0 {
			return fmt.Errorf("faults: NIC clause %d wedge has no end", i)
		}
	}
	for i, cr := range pl.Crashes {
		if cr.Node < 0 {
			return fmt.Errorf("faults: crash %d has negative node %d", i, cr.Node)
		}
	}
	for i := range pl.Links {
		c := &pl.Links[i]
		if c.Link < 0 && c.Link != Any {
			return fmt.Errorf("faults: link clause %d has invalid link %d", i, c.Link)
		}
		if math.IsNaN(c.Loss) || c.Loss < 0 || c.Loss > 1 {
			return fmt.Errorf("faults: link clause %d has invalid Loss rate %v", i, c.Loss)
		}
		if c.Until > 0 && c.Until < c.From {
			return fmt.Errorf("faults: link clause %d window inverted (%v .. %v)", i, c.From, c.Until)
		}
		if c.Down && c.Link == Any {
			return fmt.Errorf("faults: link clause %d downs every trunk at once — partition the whole fabric with Clauses instead", i)
		}
	}
	for i, cr := range pl.SwitchCrashes {
		if cr.Switch < 0 {
			return fmt.Errorf("faults: switch crash %d has negative switch %d", i, cr.Switch)
		}
	}
	for i, rs := range pl.Restarts {
		if rs.Node < 0 {
			return fmt.Errorf("faults: restart %d has negative node %d", i, rs.Node)
		}
		if rs.At < 0 {
			return fmt.Errorf("faults: restart %d has negative time %v", i, rs.At)
		}
		if rs.Downtime <= 0 {
			return fmt.Errorf("faults: restart %d has non-positive downtime %v", i, rs.Downtime)
		}
	}
	return nil
}

// Normalized returns a copy with every rate clamped into [0, 1] (NaN
// becomes 0) and inverted windows emptied, so a hand-built plan cannot
// make the switch misbehave.
func (pl *Plan) Normalized() *Plan {
	if pl == nil {
		return nil
	}
	out := &Plan{
		Clauses:       append([]Clause(nil), pl.Clauses...),
		NIC:           append([]NICClause(nil), pl.NIC...),
		Crashes:       append([]crash(nil), pl.Crashes...),
		Links:         append([]LinkClause(nil), pl.Links...),
		SwitchCrashes: append([]SwitchCrash(nil), pl.SwitchCrashes...),
		Restarts:      append([]Restart(nil), pl.Restarts...),
	}
	for i := range out.Clauses {
		c := &out.Clauses[i]
		c.Loss = clampRate(c.Loss)
		c.Dup = clampRate(c.Dup)
		c.Corrupt = clampRate(c.Corrupt)
		c.Reorder = clampRate(c.Reorder)
		if c.Until > 0 && c.Until < c.From {
			c.Until = c.From
		}
	}
	for i := range out.NIC {
		c := &out.NIC[i]
		c.DropDoorbell = clampRate(c.DropDoorbell)
		c.DMAStall = clampRate(c.DMAStall)
		c.FlipDesc = clampRate(c.FlipDesc)
		c.LoseUnexpected = clampRate(c.LoseUnexpected)
		if c.Until > 0 && c.Until < c.From {
			c.Until = c.From
		}
	}
	for i := range out.Links {
		c := &out.Links[i]
		c.Loss = clampRate(c.Loss)
		if c.Until > 0 && c.Until < c.From {
			c.Until = c.From
		}
	}
	return out
}

// clampRate clamps a probability into [0, 1], mapping NaN to 0.
func clampRate(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// --- Constructors ---------------------------------------------------------

// Uniform returns a clause applying the given rates to every link for
// the whole run.
func Uniform(loss, dup, corrupt, reorder float64) Clause {
	return Clause{Src: Any, Dst: Any, Loss: loss, Dup: dup, Corrupt: corrupt, Reorder: reorder}
}

// nodeDown isolates a node (all traffic to and from it dropped) during
// [from, until) — a link down or a dead switch port.
func nodeDown(node int, from, until sim.Duration) []Clause {
	return []Clause{
		{From: from, Until: until, Src: node, Dst: Any, Partition: true},
		{From: from, Until: until, Src: Any, Dst: node, Partition: true},
	}
}

// flap makes a node's link go down for downFor once per period, count
// times, starting at from — the classic flapping-port schedule.
func flap(node int, from, period, downFor sim.Duration, count int) []Clause {
	var cs []Clause
	for i := 0; i < count; i++ {
		start := from + sim.Duration(i)*period
		cs = append(cs, nodeDown(node, start, start+downFor)...)
	}
	return cs
}

// FlapPhased is flap with a seed-stable phase: the first outage starts
// at from plus a deterministic offset in [0, period) derived from the
// seed, so chaos runs with different seeds exercise different alignments
// of the outage windows against the workload without losing
// reproducibility.
func FlapPhased(seed uint64, node int, from, period, downFor sim.Duration, count int) []Clause {
	phase := sim.NewRand(seed^0x9e3779b97f4a7c15^uint64(node)).Duration(0, period)
	return flap(node, from+phase, period, downFor, count)
}

// CrashAt schedules a node crash.
func CrashAt(node int, at sim.Duration) crash { return crash{Node: node, At: at} }

// RestartPhased schedules a whole-host crash–restart with a seed-stable
// kill phase: the crash lands at from plus a deterministic offset in
// [0, span) derived from the seed, so chaos runs with different seeds
// exercise different alignments of the reboot against the workload
// without losing reproducibility.
func RestartPhased(seed uint64, node int, from, span, downtime sim.Duration) Restart {
	phase := sim.NewRand(seed^0xb007b007b007^uint64(node)).Duration(0, span)
	return Restart{Node: node, At: from + phase, Downtime: downtime}
}

// --- Fabric-domain constructors ---------------------------------------------

// LinkDown takes trunk link down during [from, until); until <= 0 means
// the link never comes back.
func LinkDown(link int, from, until sim.Duration) LinkClause {
	return LinkClause{From: from, Until: until, Link: link, Down: true}
}

// SwitchDown schedules a fabric switch crash.
func SwitchDown(sw int, at sim.Duration) SwitchCrash { return SwitchCrash{Switch: sw, At: at} }

// --- NIC-domain constructors ----------------------------------------------

// DoorbellDrops loses the given fraction of a node's host->NIC mailbox
// rings during [from, until).
func DoorbellDrops(node int, from, until sim.Duration, rate float64) NICClause {
	return NICClause{From: from, Until: until, Node: node, DropDoorbell: rate}
}

// DMAStalls stalls the given fraction of a node's DMA transfers by
// stallFor during [from, until).
func DMAStalls(node int, from, until sim.Duration, rate float64, stallFor sim.Duration) NICClause {
	return NICClause{From: from, Until: until, Node: node, DMAStall: rate, DMAStallFor: stallFor}
}

// DescFlips corrupts the given fraction of a node's transmit
// descriptors during [from, until); the receiver's FCS check catches
// the damage and EMP retransmission repairs it.
func DescFlips(node int, from, until sim.Duration, rate float64) NICClause {
	return NICClause{From: from, Until: until, Node: node, FlipDesc: rate}
}

// LostCreditUpdates silently drops the given fraction of a node's
// completed unexpected-queue deliveries during [from, until) — lost
// after the EMP-level acknowledgment, so only a higher-layer
// reconciliation sweep can repair the resulting credit drift.
func LostCreditUpdates(node int, from, until sim.Duration, rate float64) NICClause {
	return NICClause{From: from, Until: until, Node: node, LoseUnexpected: rate}
}

// FirmwareWedge stalls a node's NIC firmware (send, receive, and
// retransmit scheduling) during [from, until).
func FirmwareWedge(node int, from, until sim.Duration) NICClause {
	return NICClause{From: from, Until: until, Node: node, Wedge: true}
}

// RandomPlan generates a seed-stable randomized plan for chaos testing:
// a base of uniform low-grade loss/dup/corrupt/reorder plus a few
// windowed bursts on random links among the given nodes. The plan is a
// pure function of the seed. Crashes are not generated — a workload
// must be built to tolerate a specific crash, so chaos tests add those
// explicitly.
func RandomPlan(seed uint64, nodes int, dur sim.Duration) *Plan {
	r := sim.NewRand(seed)
	pl := &Plan{}
	pl.Clauses = append(pl.Clauses, Uniform(
		0.002+0.01*r.Float64(),  // loss
		0.002+0.01*r.Float64(),  // dup
		0.002+0.008*r.Float64(), // corrupt
		0.002+0.01*r.Float64(),  // reorder
	))
	if nodes < 2 {
		nodes = 2
	}
	bursts := 2 + r.Intn(3)
	for i := 0; i < bursts; i++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes)
		for dst == src {
			dst = r.Intn(nodes)
		}
		from := r.Duration(0, dur/2)
		until := from + r.Duration(dur/20, dur/5)
		c := Clause{From: from, Until: until, Src: src, Dst: dst}
		switch r.Intn(4) {
		case 0:
			c.Loss = 0.05 + 0.15*r.Float64()
		case 1:
			c.Dup = 0.05 + 0.15*r.Float64()
		case 2:
			c.Corrupt = 0.05 + 0.15*r.Float64()
		default:
			c.Reorder = 0.1 + 0.2*r.Float64()
		}
		pl.Clauses = append(pl.Clauses, c)
	}
	return pl
}

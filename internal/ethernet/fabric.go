package ethernet

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Fabric composes switches into a topology: switches are
// interconnected by full-duplex trunk links, stations attach to any
// switch under one fabric-wide address space, and frames between
// stations on different switches are routed hop by hop along shortest
// paths, with deterministic seed-stable ECMP hashing over (src, dst,
// flow) spreading connections across equal-cost paths.
//
// The fabric is also where the fault plan's link and switch clauses
// land: a trunk taken down (or a crashed switch) blackholes the frames
// already hashed onto it until the failure detector notices — modeled
// as a fixed DetectDelay, standing in for loss-of-light/hello timeout —
// after which every switch's forwarding table is recomputed around the
// failure and the flows rehash onto surviving paths. Upper-layer
// reliability (EMP retransmission, TCP RTO) carries the connections
// across the detection window, so a single link or spine failure is
// survivable without any application-visible error.
//
// Every switch is a fabric member: NewSwitch builds a one-switch fabric
// (the paper's testbed), where every frame is local and the same
// forwarding path simply never reaches a trunk.
type Fabric struct {
	eng *sim.Engine
	cfg FabricConfig

	switches []*Switch
	trunks   []*Trunk
	// stations maps a global station address to its port (and so to
	// the switch it is attached to); addresses are allocated densely in
	// attach order.
	stations []*Port

	plan *faults.Plan

	// routes[s][d] is switch s's ECMP next-hop set (trunk ids, sorted)
	// toward stations on switch d; prevRoutes is the table before the
	// most recent recompute, kept so route-event subscribers can compare
	// a connection's old and new path.
	routes     [][][]int
	prevRoutes [][][]int
	epoch      int64

	// downRef counts overlapping down windows per trunk; a trunk is
	// down while its count is positive or either endpoint is dead.
	downRef []int

	onRoute []func(RouteEvent)

	// Counters, published by the cluster's "fabric" source.
	reroutes     sim.Counter `metric:"reroutes"`
	linkDowns    sim.Counter `metric:"link_downs"`
	switchDeaths sim.Counter `metric:"switch_deaths"`
	// routeDrops counts frames any switch dropped because no live route
	// to their destination existed: a disconnected fabric, a dead leaf,
	// or an unknown station.
	routeDrops sim.Counter `metric:"route_drops"`
}

// FabricConfig parameterizes the fabric-wide machinery.
type FabricConfig struct {
	// Seed feeds the ECMP path-selection hash; the same seed and
	// topology always yield the same path assignments.
	Seed uint64
	// DetectDelay is how long a link or switch failure goes unnoticed
	// before the forwarding tables are recomputed around it (and, on
	// recovery, how long a restored link waits before rejoining the
	// ECMP sets). Zero selects DefaultDetectDelay.
	DetectDelay sim.Duration
	// NoReroute freezes the forwarding tables as computed at build
	// time: failures still blackhole traffic but nothing routes around
	// them. This is the chaos-fabric control proving the reroute
	// machinery is what makes single failures survivable.
	NoReroute bool
}

// DefaultDetectDelay models loss-of-light detection plus control-plane
// convergence: long enough to blackhole in-flight traffic, far shorter
// than the transports' retry budgets.
const DefaultDetectDelay = 1 * sim.Millisecond

// NewFabric returns an empty fabric; add switches, trunks, stations.
func NewFabric(e *sim.Engine, cfg FabricConfig) *Fabric {
	if cfg.DetectDelay <= 0 {
		cfg.DetectDelay = DefaultDetectDelay
	}
	return &Fabric{eng: e, cfg: cfg}
}

// AddSwitch creates a switch as a fabric member. The name appears in
// traces and reports ("leaf0", "spine1", ...).
func (fb *Fabric) AddSwitch(name string) *Switch {
	s := &Switch{eng: fb.eng, fab: fb, id: len(fb.switches), name: name}
	s.ingress = func(a any) { s.forward(a.(*Frame)) }
	fb.switches = append(fb.switches, s)
	// Switches join at build time, before traffic; rebuilding here keeps
	// Path usable immediately without a separate "seal" call.
	fb.routes = fb.compute()
	fb.prevRoutes = fb.routes
	return s
}

// Switches reports the fabric's switches in id order.
func (fb *Fabric) Switches() []*Switch { return fb.switches }

// Trunks reports the fabric's trunk links in id order.
func (fb *Fabric) Trunks() []*Trunk { return fb.trunks }

// Trunk is one full-duplex switch-to-switch interconnect. Each
// direction serializes on its own resource at line rate, like a station
// link; down state blackholes frames until the failure detector reacts.
type Trunk struct {
	fb   *Fabric
	id   int
	a, b *Switch
	// res[0] carries a->b, res[1] b->a.
	res [2]*sim.Resource
	// land[dir] is arrive bound to t and dir once, the fn of every frame
	// event at the far end of that direction; its arg is the *Frame.
	land [2]func(any)

	// Counters, per direction (0: a->b, 1: b->a).
	forwards [2]int64
	drops    [2]int64
}

// Connect joins two fabric switches with a new trunk and returns it.
func (fb *Fabric) Connect(a, b *Switch) *Trunk {
	if a.fab != fb || b.fab != fb {
		panic("ethernet: Connect across fabrics")
	}
	if a == b {
		panic("ethernet: trunk from a switch to itself")
	}
	t := &Trunk{fb: fb, id: len(fb.trunks), a: a, b: b}
	t.res[0] = sim.NewResource(fb.eng)
	t.res[1] = sim.NewResource(fb.eng)
	t.land[0] = func(f any) { t.arrive(0, b, f.(*Frame)) }
	t.land[1] = func(f any) { t.arrive(1, a, f.(*Frame)) }
	fb.trunks = append(fb.trunks, t)
	fb.downRef = append(fb.downRef, 0)
	fb.routes = fb.compute()
	fb.prevRoutes = fb.routes
	return t
}

// ID reports the trunk's fabric-wide id (creation order) — the handle
// faults.LinkClause aims at.
func (t *Trunk) ID() int { return t.id }

// Ends reports the trunk's two switches.
func (t *Trunk) Ends() (a, b *Switch) { return t.a, t.b }

// String names the trunk for traces and reports.
func (t *Trunk) String() string {
	return fmt.Sprintf("trunk%d %s<->%s", t.id, t.a.name, t.b.name)
}

// down reports whether the trunk cannot carry frames right now.
func (t *Trunk) down() bool {
	return t.fb.downRef[t.id] > 0 || t.a.dead || t.b.dead
}

// Forwards reports frames carried per direction (a->b, b->a).
func (t *Trunk) Forwards() (ab, ba int64) { return t.forwards[0], t.forwards[1] }

// Drops reports frames blackholed per direction while the trunk (or an
// endpoint switch) was down.
func (t *Trunk) Drops() (ab, ba int64) { return t.drops[0], t.drops[1] }

// forward carries a frame from one end of the trunk to the other:
// store-and-forward latency at the sending switch, serialization on the
// directional trunk resource, propagation, then transit at the far
// switch. A down trunk blackholes immediately; one that goes down (or
// whose far switch dies) while the frame is in flight blackholes at
// arrival.
func (t *Trunk) forward(from *Switch, f *Frame, extraDelay sim.Duration) {
	dir := 0
	if from == t.b {
		dir = 1
	}
	if t.down() {
		t.drops[dir]++
		t.fb.eng.Tracef(from.name, "TRUNK-DROP %s %d->%d len=%d", t, f.Src, f.Dst, f.PayloadLen)
		return
	}
	if t.fb.plan != nil {
		act := t.fb.plan.EvalLink(t.fb.eng.Rand(), sim.Duration(t.fb.eng.Now()), t.id)
		if act.Drop {
			t.drops[dir]++
			t.fb.eng.Tracef(from.name, "TRUNK-DEGRADE-DROP %s %d->%d len=%d", t, f.Src, f.Dst, f.PayloadLen)
			return
		}
		extraDelay += act.Delay
	}
	t.forwards[dir]++
	from.forwards.Inc()
	start := t.fb.eng.Now().Add(forwardLatency)
	done := t.res[dir].ReserveAt(start, f.WireTime())
	arrive := done.Add(propDelay + extraDelay)
	t.fb.eng.AtArg(arrive, t.land[dir], f)
}

// arrive runs when a frame sent in direction dir reaches switch to at
// the trunk's far end.
func (t *Trunk) arrive(dir int, to *Switch, f *Frame) {
	if t.down() {
		t.drops[dir]++
		t.fb.eng.Tracef(to.name, "TRUNK-DROP-INFLIGHT %s %d->%d len=%d", t, f.Src, f.Dst, f.PayloadLen)
		return
	}
	to.transit(f)
}

// --- Routing ----------------------------------------------------------------

// compute builds every switch's ECMP next-hop table over the live
// topology (dead switches and down trunks excluded) by BFS from each
// destination switch. routes[s][d] lists the trunk ids at s that start
// a shortest path to d, sorted for determinism.
func (fb *Fabric) compute() [][][]int {
	n := len(fb.switches)
	routes := make([][][]int, n)
	for i := range routes {
		routes[i] = make([][]int, n)
	}
	// adj[s] = live trunks incident to s, in id order.
	adj := make([][]*Trunk, n)
	for _, t := range fb.trunks {
		if t.down() {
			continue
		}
		adj[t.a.id] = append(adj[t.a.id], t)
		adj[t.b.id] = append(adj[t.b.id], t)
	}
	for d := 0; d < n; d++ {
		if fb.switches[d].dead {
			continue
		}
		// BFS distance from every switch to d.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue := []int{d}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, t := range adj[u] {
				v := t.a.id
				if v == u {
					v = t.b.id
				}
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for s := 0; s < n; s++ {
			if s == d || dist[s] < 0 || fb.switches[s].dead {
				continue
			}
			var nh []int
			for _, t := range adj[s] {
				v := t.a.id
				if v == s {
					v = t.b.id
				}
				if dist[v] == dist[s]-1 {
					nh = append(nh, t.id)
				}
			}
			routes[s][d] = nh // adj is id-ordered, so nh is sorted
		}
	}
	return routes
}

// nextHop picks the trunk a frame leaves switch s on toward the
// destination's switch ds, or nil when no live route exists.
func (fb *Fabric) nextHop(s, ds *Switch, f *Frame) *Trunk {
	nh := fb.routes[s.id][ds.id]
	if len(nh) == 0 {
		return nil
	}
	return fb.trunks[nh[ecmpHash(fb.cfg.Seed, s.id, f.Src, f.Dst, f.Flow)%uint64(len(nh))]]
}

// portOf reports a station's port, nil if the address is unknown.
func (fb *Fabric) portOf(a Addr) *Port {
	if int(a) < 0 || int(a) >= len(fb.stations) {
		return nil
	}
	return fb.stations[a]
}

// ecmpHash is the deterministic path-selection hash: FNV-1a over the
// fabric seed, the hashing switch's id (so consecutive hops decorrelate)
// and the frame's (src, dst, flow). No engine randomness is drawn, so
// path selection never perturbs the fault plans' seed-stable draws.
func ecmpHash(seed uint64, swID int, src, dst Addr, flow uint32) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(seed)
	mix(uint64(swID))
	mix(uint64(uint32(src)))
	mix(uint64(uint32(dst)))
	mix(uint64(flow))
	return h
}

// Path reports the trunk ids a frame (src, dst, flow) traverses under
// the current forwarding tables, nil for station pairs on one switch,
// and (nil, false) when no live route exists. It charges no simulated
// time and draws no randomness — the same pure function the data path
// uses.
func (fb *Fabric) Path(src, dst Addr, flow uint32) ([]int, bool) {
	return fb.pathUnder(fb.routes, src, dst, flow)
}

// PathBefore is Path evaluated under the forwarding tables as they were
// before the most recent recompute; route-event subscribers use it to
// tell which path a connection was on when a failure hit.
func (fb *Fabric) PathBefore(src, dst Addr, flow uint32) ([]int, bool) {
	return fb.pathUnder(fb.prevRoutes, src, dst, flow)
}

func (fb *Fabric) pathUnder(routes [][][]int, src, dst Addr, flow uint32) ([]int, bool) {
	sp, dp := fb.portOf(src), fb.portOf(dst)
	if sp == nil || dp == nil {
		return nil, false
	}
	ss, ds := sp.sw, dp.sw
	if ss == ds {
		return nil, true
	}
	var path []int
	cur := ss
	for cur != ds {
		nh := routes[cur.id][ds.id]
		if len(nh) == 0 {
			return nil, false
		}
		t := fb.trunks[nh[ecmpHash(fb.cfg.Seed, cur.id, src, dst, flow)%uint64(len(nh))]]
		path = append(path, t.id)
		if cur == t.a {
			cur = t.b
		} else {
			cur = t.a
		}
		if len(path) > len(fb.switches) {
			panic("ethernet: routing loop") // shortest-path next hops cannot loop
		}
	}
	return path, true
}

// PathString renders a path for flight-recorder details: the trunk ids
// joined by '>', "local" for same-switch pairs, "none" when unreachable.
func PathString(path []int, ok bool) string {
	if !ok {
		return "none"
	}
	if len(path) == 0 {
		return "local"
	}
	parts := make([]string, len(path))
	for i, id := range path {
		parts[i] = fmt.Sprintf("t%d", id)
	}
	return strings.Join(parts, ">")
}

// --- Failure detection and rerouting ----------------------------------------

// RouteEvent announces a detected fabric transition to subscribers,
// after the forwarding tables have been recomputed (unless NoReroute).
// During the callback PathBefore answers under the pre-transition
// tables and Path under the new ones.
type RouteEvent struct {
	At   sim.Time
	Kind string // "link-down", "link-up", "switch-down"
	// Link is the trunk id for link events, -1 otherwise.
	Link int
	// Switch is the switch id for switch events, -1 otherwise.
	Switch int
	// Epoch is the forwarding-table generation after this event.
	Epoch int64
	// Rerouted reports whether the tables were recomputed (false under
	// NoReroute).
	Rerouted bool
}

// Subscribe registers a route-event listener. Listeners run in event
// context, in registration order, and must not block.
func (fb *Fabric) Subscribe(fn func(RouteEvent)) { fb.onRoute = append(fb.onRoute, fn) }

// ApplyFaults installs the plan's fabric clauses: hard link-down
// windows and switch crashes become scheduled link-state transitions,
// each followed DetectDelay later by a table recompute and a route
// event; degrade clauses (Loss, Delay) are kept for per-crossing
// evaluation. Safe to call with a plan without fabric clauses — degrade
// evaluation short-circuits and nothing is scheduled.
func (fb *Fabric) ApplyFaults(pl *faults.Plan) {
	pl = pl.Normalized()
	fb.plan = pl
	if pl == nil {
		return
	}
	for _, t := range fb.trunks {
		for _, w := range pl.DownWindows(t.id) {
			t := t
			fb.eng.At(sim.Time(w.From), func() { fb.linkTransition(t, +1) })
			if w.Until > 0 {
				fb.eng.At(sim.Time(w.Until), func() { fb.linkTransition(t, -1) })
			}
		}
	}
	for _, cr := range pl.SwitchCrashes {
		if cr.Switch < 0 || cr.Switch >= len(fb.switches) {
			continue
		}
		s := fb.switches[cr.Switch]
		fb.eng.At(sim.Time(cr.At), func() { fb.crashSwitch(s) })
	}
}

// linkTransition applies one edge of a down window (+1 down, -1 up) and
// schedules its detection.
func (fb *Fabric) linkTransition(t *Trunk, delta int) {
	was := t.down()
	fb.downRef[t.id] += delta
	if fb.downRef[t.id] < 0 {
		fb.downRef[t.id] = 0
	}
	now := t.down()
	if was == now {
		return // overlapping windows: no observable transition
	}
	kind := "link-up"
	if now {
		kind = "link-down"
		fb.linkDowns.Inc()
		fb.eng.Tracef("fabric", "%s DOWN", t)
	} else {
		fb.eng.Tracef("fabric", "%s UP", t)
	}
	fb.eng.After(fb.cfg.DetectDelay, func() {
		fb.detected(RouteEvent{Kind: kind, Link: t.id, Switch: -1})
	})
}

// crashSwitch kills a fabric switch: frames inside it vanish, its
// trunks go down with it, and its stations become unreachable.
func (fb *Fabric) crashSwitch(s *Switch) {
	if s.dead {
		return
	}
	s.dead = true
	fb.switchDeaths.Inc()
	fb.eng.Tracef("fabric", "switch %s DOWN", s.name)
	fb.eng.After(fb.cfg.DetectDelay, func() {
		fb.detected(RouteEvent{Kind: "switch-down", Link: -1, Switch: s.id})
	})
}

// detected runs when the control plane notices a transition: recompute
// the forwarding tables around it (unless NoReroute) and tell the
// subscribers.
func (fb *Fabric) detected(ev RouteEvent) {
	ev.At = fb.eng.Now()
	if !fb.cfg.NoReroute {
		fb.prevRoutes = fb.routes
		fb.routes = fb.compute()
		fb.epoch++
		fb.reroutes.Inc()
		ev.Rerouted = true
		fb.eng.Tracef("fabric", "reroute: %s epoch=%d", ev.Kind, fb.epoch)
	}
	ev.Epoch = fb.epoch
	for _, fn := range fb.onRoute {
		fn(ev)
	}
	if ev.Rerouted {
		// The pre-transition view is only meaningful during the
		// callbacks; afterwards old and new coincide again.
		fb.prevRoutes = fb.routes
	}
}

// Package cluster assembles the paper's testbed in one call: N hosts
// (quad PIII-700 class), a Gigabit Ethernet switch, and on every host
// either the kernel TCP/IP stack or the user-level EMP substrate, plus a
// RAM disk and an fd-tracking descriptor space. The example applications
// and the benchmark harness run on clusters built here, selecting the
// transport by configuration only — the application code is identical,
// which is the paper's point.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/fdtable"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/ramfs"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// Transport selects a node's socket layer.
type Transport int

const (
	// TransportTCP is the kernel stack with default (16 KB) buffers.
	TransportTCP Transport = iota
	// TransportTCPBig is the kernel stack with enlarged buffers.
	TransportTCPBig
	// TransportSubstrate is the user-level sockets-over-EMP substrate.
	TransportSubstrate
)

func (t Transport) String() string {
	switch t {
	case TransportTCP:
		return "TCP"
	case TransportTCPBig:
		return "TCP(256KB)"
	case TransportSubstrate:
		return "Substrate"
	}
	return "?"
}

// Config describes a cluster.
type Config struct {
	Nodes     int
	Transport Transport
	// Substrate holds the substrate options when Transport is
	// TransportSubstrate; nil means core.DefaultOptions.
	Substrate *core.Options
	// TCP overrides the stack config for the TCP transports.
	TCP *tcpip.StackConfig
	// Cores per host (the paper's testbed machines are quads).
	Cores int
	// NIC overrides the NIC's lookup model, MTU and receive CPUs
	// (substrate only).
	NIC *nic.Config
	// Seed seeds the engine's deterministic random source and the
	// fabric's ECMP path-selection hash.
	Seed uint64
	// Faults, when non-nil, injects the plan's frame faults at every
	// switch (once per frame, at the ingress switch), its trunk and
	// switch clauses on the fabric (a single-switch cluster's switch is
	// switch 0), its NIC/firmware faults at each substrate node's NIC,
	// and schedules its node crashes. Node indices in the plan refer to
	// positions in Nodes; fabric port indices coincide with node
	// indices because New attaches nodes in order (on Failover
	// clusters, where each node attaches twice, the substrate NIC
	// takes the even ports: node i's NIC is fabric port 2i, its TCP
	// stack port 2i+1).
	Faults *faults.Plan
	// Failover gives every node BOTH transports: the substrate (the
	// node's primary Net) and a kernel TCP stack on a separate fabric
	// attachment, so sessions can fail over from EMP to TCP when the
	// substrate's NIC is faulted. The substrate defaults shift to
	// recovery-friendly values (SyncConnect, a dial deadline, the
	// credit-reconciliation sweep) unless Substrate overrides them.
	Failover bool
	// Topology, when non-nil, replaces the single switch (a fabric of
	// one leaf and no spines) with a multi-switch spine-leaf fabric.
	// Station addressing is unchanged (attach order is still node
	// order), so fault-plan node indices and the even/odd Failover port
	// convention carry over.
	Topology *Topology
}

// Topology describes a spine-leaf fabric: Leaves edge switches hosting
// the stations, Spines core switches, and a trunk from every leaf to
// every spine (trunk ids run leaf-major: leaf l's trunk to spine s is
// l*Spines+s). Leaves below 1 count as 1, and more than one leaf gets
// at least one spine, so every pair of leaves is connected. Node i's
// NIC attaches to leaf i%Leaves; on Failover clusters the node's TCP
// stack attaches to leaf (i+1)%Leaves, so a node's two transports enter
// the fabric on different leaves and even a leaf failure leaves the
// node reachable.
type Topology struct {
	Spines int
	Leaves int
	// DetectDelay overrides how long failures blackhole before the
	// fabric reroutes (zero: ethernet.DefaultDetectDelay).
	DetectDelay sim.Duration
	// NoReroute freezes the initial forwarding tables — the chaos
	// control proving reroute is what makes failures survivable.
	NoReroute bool
}

// Node is one machine of the cluster.
type Node struct {
	Host *kernel.Host
	Net  sock.Network
	FS   *ramfs.FS
	FD   *fdtable.Space

	// Sub is non-nil on substrate transports.
	Sub *core.Substrate
	// Stack is non-nil on TCP transports.
	Stack *tcpip.Stack

	// Tel is this node's telemetry registry: every layer on the node
	// (substrate or TCP stack, EMP, pollers) feeds it. It survives
	// crash–restart cycles — counters and flight rings accumulate
	// across incarnations, while pull-through sources are replaced by
	// the reborn layers.
	Tel *telemetry.Registry

	// Resume is the node's durable session-resume store: replica state
	// the session layer consults when a reborn listener is asked to
	// resume a stream the dead incarnation owned. It survives restarts
	// (modeling synchronously replicated session metadata).
	Resume *sock.SessionStore

	// Incarnation counts the node's boots, starting at 1. A
	// crash–restart bumps it; the session handshake carries it so peers
	// can tell a reboot from a transient fault. A reborn node publishes
	// it under layer "node".
	Incarnation int `metric:"incarnation"`

	// boot is the node's registered app bootstrap, re-spawned after
	// every rebirth so listeners resurrect.
	boot func(p *sim.Proc)
}

// Down reports whether the node is currently dead (crashed and not yet
// reborn).
func (n *Node) Down() bool {
	if n.Sub != nil {
		return n.Sub.Dead()
	}
	if n.Stack != nil {
		return n.Stack.Dead()
	}
	return false
}

// Cluster is an assembled testbed. Every cluster forwards through one
// ethernet.Fabric; Switch is the only switch of a single-switch cluster
// (the default, a one-leaf fabric) and Fabric is exposed on Topology
// clusters. Exactly one of the two is non-nil.
type Cluster struct {
	Eng    *sim.Engine
	Switch *ethernet.Switch
	Fabric *ethernet.Fabric
	Nodes  []*Node
	Cfg    Config
}

// New assembles a cluster.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Cores < 1 {
		cfg.Cores = 4
	}
	eng := sim.NewEngine()
	if cfg.Seed != 0 {
		eng.Seed(cfg.Seed)
	}
	// Every cluster forwards through one fabric. Without a Topology it
	// holds a single switch (the paper's testbed); with one, a
	// spine-leaf fabric.
	topo := Topology{Leaves: 1}
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	if topo.Leaves < 1 {
		topo.Leaves = 1
	}
	if topo.Leaves > 1 && topo.Spines < 1 {
		// Leaves with no spine have no trunk between them.
		topo.Spines = 1
	}
	fb := ethernet.NewFabric(eng, ethernet.FabricConfig{
		Seed:        cfg.Seed,
		DetectDelay: topo.DetectDelay,
		NoReroute:   topo.NoReroute,
	})
	var leaves, spines []*ethernet.Switch
	for l := 0; l < topo.Leaves; l++ {
		leaves = append(leaves, fb.AddSwitch(fmt.Sprintf("leaf%d", l)))
	}
	for s := 0; s < topo.Spines; s++ {
		spines = append(spines, fb.AddSwitch(fmt.Sprintf("spine%d", s)))
	}
	for _, lf := range leaves {
		for _, sp := range spines {
			fb.Connect(lf, sp)
		}
	}
	// nicAt/tcpAt pick each attachment's edge switch: the node's leaf,
	// with the Failover TCP stack one leaf over, so a node's transports
	// enter on different leaves.
	nicAt := func(i int) *ethernet.Switch { return leaves[i%len(leaves)] }
	tcpAt := func(i int) *ethernet.Switch { return leaves[(i+1)%len(leaves)] }
	c := &Cluster{Eng: eng, Cfg: cfg}
	if cfg.Topology != nil {
		c.Fabric = fb
	} else {
		c.Switch = leaves[0]
	}
	for i := 0; i < cfg.Nodes; i++ {
		host := kernel.NewHost(eng, "host", cfg.Cores)
		c.Nodes = append(c.Nodes, &Node{Host: host, FS: ramfs.New(host), Tel: telemetry.New(),
			Resume: sock.NewSessionStore(), Incarnation: 1})
		// Attach order fixes the fabric addresses: a node's substrate
		// NIC before its Failover TCP stack, node after node.
		var nicPort, tcpPort *ethernet.Port
		switch {
		case cfg.Failover:
			nicPort, tcpPort = nicAt(i).Attach(nil), tcpAt(i).Attach(nil)
		case cfg.Transport == TransportSubstrate:
			nicPort = nicAt(i).Attach(nil)
		default:
			tcpPort = nicAt(i).Attach(nil)
		}
		c.buildNode(i, nicPort, tcpPort)
	}
	if cfg.Faults != nil {
		// Frame-level clauses evaluate once per frame at the ingress
		// switch; link and switch clauses land on the fabric itself.
		for _, s := range fb.Switches() {
			s.SetFaults(cfg.Faults)
		}
		fb.ApplyFaults(cfg.Faults)
		for _, cr := range cfg.Faults.Crashes {
			cr := cr
			eng.At(sim.Time(cr.At), func() { c.Kill(cr.Node) })
		}
		for _, rs := range cfg.Faults.Restarts {
			rs := rs
			var refs []flightRef
			eng.At(sim.Time(rs.At), func() {
				refs = c.hostDown(rs.Node)
				c.Kill(rs.Node)
			})
			eng.At(sim.Time(rs.At+rs.Downtime), func() {
				c.restartNode(rs.Node, refs)
			})
		}
	}
	if c.Fabric != nil {
		c.watchRoutes()
	}
	return c
}

// watchRoutes turns fabric route events into per-connection
// flight-recorder entries, so a reset dump shows which path a
// connection died on or moved to: "link-down"/"switch-down" when the
// connection's path contained the failed element (or the failure cut
// its endpoints apart), "reroute" when a detected failure moved it to a
// surviving path, "path-change" for any other recompute that moved it
// (e.g. a link coming back). Recording is host bookkeeping — no
// simulated time — and runs in node then sorted-connection order, so
// the records are deterministic.
func (c *Cluster) watchRoutes() {
	fb := c.Fabric
	fb.Subscribe(func(ev ethernet.RouteEvent) {
		now := c.Eng.Now()
		elem := fmt.Sprintf("trunk %d", ev.Link)
		if ev.Switch >= 0 {
			elem = fmt.Sprintf("switch %d", ev.Switch)
		}
		for _, n := range c.Nodes {
			tel := n.Tel
			visit := func(id string, local, peer ethernet.Addr, flow uint32) {
				before, okB := fb.PathBefore(local, peer, flow)
				after, okA := fb.Path(local, peer, flow)
				changed := okB != okA || !equalPath(before, after)
				failure := ev.Kind == "link-down" || ev.Kind == "switch-down"
				onFailed := failure && okB && pathHits(fb, before, ev)
				switch {
				case onFailed || (failure && okB && !okA):
					tel.Flight(id).Recordf(now, ev.Kind, "%s on path %s",
						elem, ethernet.PathString(before, okB))
					if ev.Rerouted && changed && okA {
						tel.Flight(id).Recordf(now, "reroute", "%s -> %s epoch=%d",
							ethernet.PathString(before, okB), ethernet.PathString(after, okA), ev.Epoch)
					}
				case changed:
					tel.Flight(id).Recordf(now, "path-change", "%s -> %s epoch=%d",
						ethernet.PathString(before, okB), ethernet.PathString(after, okA), ev.Epoch)
				}
			}
			if n.Sub != nil {
				n.Sub.VisitConns(visit)
			}
			if n.Stack != nil {
				n.Stack.VisitConns(visit)
			}
		}
	})
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pathHits reports whether the failed element the event announces lies
// on the given trunk path.
func pathHits(fb *ethernet.Fabric, path []int, ev ethernet.RouteEvent) bool {
	for _, id := range path {
		if ev.Link >= 0 && id == ev.Link {
			return true
		}
		if ev.Switch >= 0 {
			a, b := fb.Trunks()[id].Ends()
			if a.ID() == ev.Switch || b.ID() == ev.Switch {
				return true
			}
		}
	}
	return false
}

// failoverOptions is the substrate configuration Failover clusters
// default to: the paper's DS_DA_UQ data path plus synchronous connect
// (a dial must learn its fate before the session layer can fail over)
// and the recovery machinery — a jittered dial deadline, keepalive
// probing so a dead peer is detected on idle connections, and the
// credit-reconciliation sweep repairing grants lost to NIC faults.
func failoverOptions() core.Options {
	o := core.DefaultOptions()
	o.SyncConnect = true
	o.Recovery = true
	return o
}

// nicConfig resolves the NIC config a (re)built node uses.
func (c *Cluster) nicConfig() nic.Config {
	if c.Cfg.NIC != nil {
		return *c.Cfg.NIC
	}
	return nic.DefaultConfig()
}

// subOptions resolves the substrate options a (re)built node uses.
func (c *Cluster) subOptions() core.Options {
	if c.Cfg.Substrate != nil {
		return *c.Cfg.Substrate
	}
	if c.Cfg.Failover {
		return failoverOptions()
	}
	return core.DefaultOptions()
}

// stackConfig resolves the TCP stack config a (re)built node uses.
func (c *Cluster) stackConfig() tcpip.StackConfig {
	if c.Cfg.TCP != nil {
		return *c.Cfg.TCP
	}
	if !c.Cfg.Failover && c.Cfg.Transport == TransportTCPBig {
		return tcpip.BigBufferConfig()
	}
	return tcpip.DefaultStackConfig()
}

// SetBoot registers node i's app bootstrap: the function a restart
// re-spawns after rebuilding the node's transports, so listeners
// resurrect. The driver spawns the first incarnation itself; every
// rebirth spawns fn again as a fresh process.
func (c *Cluster) SetBoot(i int, fn func(p *sim.Proc)) {
	if i < 0 || i >= len(c.Nodes) {
		return
	}
	c.Nodes[i].boot = fn
}

// buildNode builds node i's current incarnation on the given fabric
// ports — fresh ones at New, the dead incarnation's at Rebirth, so a
// reborn node keeps its addresses: a NIC, EMP endpoint and substrate on
// nicPort, a kernel TCP stack on tcpPort (either may be nil), then the
// descriptor space over the primary transport. Every layer registers its
// telemetry here, replacing the dead incarnation's sources on the
// node's surviving registry; the host and its RAM disk survive a
// restart, so their sources re-register the same counters.
func (c *Cluster) buildNode(i int, nicPort, tcpPort *ethernet.Port) {
	n := c.Nodes[i]
	if nicPort != nil {
		nc := nic.New(c.Eng, "nic", c.nicConfig())
		nc.AttachPort(nicPort)
		if c.Cfg.Faults != nil {
			nc.SetFaults(c.Cfg.Faults, i)
		}
		so := c.subOptions()
		// Message IDs must not repeat across incarnations: peers
		// deduplicate by (src, msgID), and their completed-message state
		// survives this node's death. Epoch 0 is the first boot, so
		// restart-free runs keep the historical ID sequence exactly.
		so.BootEpoch = uint64(n.Incarnation - 1)
		n.Sub = core.New(c.Eng, n.Host, nc, n.Tel, so)
		n.Net = n.Sub
		n.Tel.ReplaceSource("nic", func() []telemetry.Stat { return telemetry.Fields(nc) })
	}
	if tcpPort != nil {
		n.Stack = tcpip.NewStackOnPort(c.Eng, n.Host, tcpPort, n.Tel, c.stackConfig())
		if n.Sub == nil {
			n.Net = n.Stack
		}
	}
	n.FD = fdtable.New(n.Net, n.FS)
	n.Tel.ReplaceSource("kernel", func() []telemetry.Stat { return telemetry.Fields(n.Host) })
	n.Tel.ReplaceSource("fs", func() []telemetry.Stat { return telemetry.Fields(n.FS) })
	// The cpu source stays silent until the core scheduler is exercised
	// and the node source appears only after a restart, so compute-free,
	// restart-free runs keep their snapshots unchanged.
	n.Tel.ReplaceSource("cpu", cpuTelemetry(n.Host))
	if n.Incarnation > 1 {
		n.Tel.ReplaceSource("node", func() []telemetry.Stat { return telemetry.Fields(n) })
	}
}

// Rebirth rebuilds crashed node i from scratch at the same fabric
// addresses under a bumped incarnation number: fresh transports are
// built on the dead incarnation's switch ports (buildNode) and the
// registered app bootstrap is re-spawned. The host's RAM disk and
// telemetry history survive, as disk and a monitoring plane would.
func (c *Cluster) Rebirth(i int) {
	if i < 0 || i >= len(c.Nodes) {
		return
	}
	n := c.Nodes[i]
	n.Incarnation++
	var nicPort, tcpPort *ethernet.Port
	if n.Sub != nil {
		nicPort = n.Sub.EP.NIC.Port()
	}
	if n.Stack != nil {
		tcpPort = n.Stack.Port()
	}
	c.buildNode(i, nicPort, tcpPort)
	if n.boot != nil {
		boot := n.boot
		c.Eng.Spawn(fmt.Sprintf("boot%d", i), boot)
	}
}

// cpuTelemetry reports the host's per-core scheduler stats: cumulative
// busy nanoseconds, completed compute charges, and utilization in basis
// points per core. It emits nothing until the core scheduler has served
// at least one charge, so workloads that never opt into core-scheduled
// compute keep their telemetry snapshots byte-identical.
func cpuTelemetry(h *kernel.Host) func() []telemetry.Stat {
	return func() []telemetry.Stat {
		cpu := h.CPU()
		if !cpu.Used() {
			return nil
		}
		out := make([]telemetry.Stat, 0, 3*cpu.N())
		for i := 0; i < cpu.N(); i++ {
			out = append(out,
				telemetry.Stat{Name: fmt.Sprintf("core%d_busy_ns", i), Value: int64(cpu.BusyTime(i))},
				telemetry.Stat{Name: fmt.Sprintf("core%d_runs", i), Value: cpu.Runs(i)},
				telemetry.Stat{Name: fmt.Sprintf("core%d_util_bp", i), Value: int64(cpu.Utilization(i) * 10000)},
			)
		}
		return out
	}
}

// flightRef names one flight-recorder ring (registry + connection id)
// affected by a host going down, so the restart half of the cycle can
// record its recovery into the same rings.
type flightRef struct {
	tel *telemetry.Registry
	id  string
}

// hostDown records "host-down" into the flight ring of every connection
// touching node i — the node's own connections and every remote
// connection whose peer address belongs to it — plus the node's own
// host-level ring, returning the affected refs for the restart event.
// Recording is host bookkeeping (no simulated time) and runs in node
// then sorted-connection order, so the records are deterministic.
func (c *Cluster) hostDown(i int) []flightRef {
	if i < 0 || i >= len(c.Nodes) {
		return nil
	}
	now := c.Eng.Now()
	n := c.Nodes[i]
	dead := make(map[ethernet.Addr]bool, 2)
	if n.Sub != nil {
		dead[n.Sub.Addr()] = true
	}
	if n.Stack != nil {
		dead[n.Stack.Addr()] = true
	}
	refs := []flightRef{{n.Tel, fmt.Sprintf("node%d/host", i)}}
	for j, m := range c.Nodes {
		tel := m.Tel
		visit := func(id string, local, peer ethernet.Addr, flow uint32) {
			if j != i && !dead[peer] {
				return
			}
			refs = append(refs, flightRef{tel, id})
		}
		if m.Sub != nil {
			m.Sub.VisitConns(visit)
		}
		if m.Stack != nil {
			m.Stack.VisitConns(visit)
		}
	}
	for _, ref := range refs {
		ref.tel.Flight(ref.id).Recordf(now, "host-down",
			"node %d crashed (incarnation %d dying)", i, n.Incarnation)
	}
	return refs
}

// restartNode completes a crash–restart cycle: rebuild the node and
// record "host-restart" into every ring the crash touched.
func (c *Cluster) restartNode(i int, refs []flightRef) {
	c.Rebirth(i)
	now := c.Eng.Now()
	n := c.Nodes[i]
	for _, ref := range refs {
		ref.tel.Flight(ref.id).Recordf(now, "host-restart",
			"node %d back (incarnation %d)", i, n.Incarnation)
	}
}

// nodeNet is a live view of one node's transport, implementing
// sock.Network by resolving the node's current substrate or stack at
// every call. Session targets hold these instead of raw transport
// pointers, so a target stays valid when a crash–restart replaces the
// node's transports with a reborn incarnation.
type nodeNet struct {
	c   *Cluster
	idx int
	tcp bool
}

func (v nodeNet) net() sock.Network {
	n := v.c.Nodes[v.idx]
	if v.tcp {
		return n.Stack
	}
	return n.Sub
}

func (v nodeNet) Listen(p *sim.Proc, port, backlog int) (sock.Listener, error) {
	return v.net().Listen(p, port, backlog)
}

func (v nodeNet) Dial(p *sim.Proc, addr sock.Addr, port int) (sock.Conn, error) {
	return v.net().Dial(p, addr, port)
}

func (v nodeNet) Addr() sock.Addr { return v.net().Addr() }

// Targets builds the failover dial list for a session from node client
// to node server: the substrate first, kernel TCP second. Both nodes
// must come from a Failover cluster. The two targets carry different
// fabric addresses because each transport has its own attachment; both
// are live views that track the nodes across crash–restart cycles.
func (c *Cluster) Targets(client, server, port int) []sock.Target {
	cn, sn := c.Nodes[client], c.Nodes[server]
	var out []sock.Target
	if cn.Sub != nil && sn.Sub != nil {
		out = append(out, sock.Target{Name: "substrate",
			Net: nodeNet{c, client, false}, Addr: sn.Sub.Addr(), Port: port})
	}
	if cn.Stack != nil && sn.Stack != nil {
		out = append(out, sock.Target{Name: "tcp",
			Net: nodeNet{c, client, true}, Addr: sn.Stack.Addr(), Port: port})
	}
	return out
}

// TelemetrySnapshot merges every node's registry (in node-index order)
// with the cluster-scoped sources into one cluster-wide deterministic
// snapshot. It is the one rendering of a run's counters: reports, the
// chaos table's columns and the benchmark all read it.
func (c *Cluster) TelemetrySnapshot() *telemetry.Snapshot {
	agg := c.TelemetryAggregate()
	return agg.Snapshot()
}

// TelemetryAggregate folds the per-node registries into a fresh
// cluster-level registry (node order, so the result is deterministic)
// and adds the cluster-scoped sources: sim wakeups, and the switch's
// tagged counters, or on a Topology cluster the fabric's own counters,
// its switches' counters summed, and its per-switch and per-trunk rows.
func (c *Cluster) TelemetryAggregate() *telemetry.Registry {
	agg := telemetry.New()
	for _, n := range c.Nodes {
		agg.Merge(n.Tel)
	}
	agg.ReplaceSource("sim", func() []telemetry.Stat {
		return []telemetry.Stat{{Name: "wakeups", Value: c.Eng.Wakeups()}}
	})
	if c.Switch != nil {
		agg.ReplaceSource("switch", func() []telemetry.Stat { return telemetry.Fields(c.Switch) })
	}
	if c.Fabric != nil {
		agg.ReplaceSource("fabric", func() []telemetry.Stat {
			fb := c.Fabric
			stats := telemetry.Fields(fb)
			for _, s := range fb.Switches() {
				stats = append(stats, telemetry.Fields(s)...)
				stats = append(stats, telemetry.Stat{Name: s.Name() + "_forwards", Value: s.Forwards()})
			}
			for _, t := range fb.Trunks() {
				fab, fba := t.Forwards()
				dab, dba := t.Drops()
				stats = append(stats,
					telemetry.Stat{Name: fmt.Sprintf("trunk%d_forwards", t.ID()), Value: fab + fba},
					telemetry.Stat{Name: fmt.Sprintf("trunk%d_drops", t.ID()), Value: dab + dba},
				)
			}
			return stats
		})
	}
	return agg
}

// FaultKeys are the switch's injected-fault counters, as snapshot keys
// in the order FaultText prints them.
var FaultKeys = []string{"switch/fault_drops", "switch/fault_partition_drops",
	"switch/fault_dups", "switch/fault_corruptions", "switch/fault_reorders"}

// FaultText renders the injected frame faults of one or more runs, each
// FaultKeys counter read through sum (a snapshot's Sum, or a sum over
// several snapshots).
func FaultText(sum func(keys ...string) int64) string {
	return fmt.Sprintf("drops=%d partition-drops=%d dups=%d corruptions=%d reorders=%d",
		sum(FaultKeys[0]), sum(FaultKeys[1]), sum(FaultKeys[2]), sum(FaultKeys[3]), sum(FaultKeys[4]))
}

// FlightDumps collects every captured flight-recorder dump across the
// cluster, in node-index order.
func (c *Cluster) FlightDumps() []telemetry.Dump {
	var out []telemetry.Dump
	for _, n := range c.Nodes {
		out = append(out, n.Tel.Dumps()...)
	}
	return out
}

// Drain gracefully quiesces this node's transport: new connects are
// refused, live sockets drain out bounded by deadline, and the
// post-drain resource audit's findings (if any) come back as the error.
func (n *Node) Drain(p *sim.Proc, deadline sim.Time) error {
	var err error
	if n.Sub != nil {
		err = n.Sub.Drain(p, deadline)
	}
	if n.Stack != nil {
		if e := n.Stack.Drain(p, deadline); err == nil {
			err = e
		}
	}
	return err
}

// Kill crashes node i: its protocol state dies instantly (no farewell
// messages) and its NIC stops accepting frames, as with a power loss.
// Out of range is a no-op; killing twice is harmless.
func (c *Cluster) Kill(i int) {
	if i < 0 || i >= len(c.Nodes) {
		return
	}
	n := c.Nodes[i]
	if n.Sub != nil {
		n.Sub.Kill()
	}
	if n.Stack != nil {
		n.Stack.Kill()
	}
}

// NewTCP builds an n-node kernel-TCP cluster with default buffers.
func NewTCP(n int) *Cluster {
	return New(Config{Nodes: n, Transport: TransportTCP})
}

// NewTCPBig builds an n-node kernel-TCP cluster with enlarged buffers.
func NewTCPBig(n int) *Cluster {
	return New(Config{Nodes: n, Transport: TransportTCPBig})
}

// NewSubstrate builds an n-node substrate cluster with the given
// options (nil means the paper's default DS_DA_UQ configuration).
func NewSubstrate(n int, opts *core.Options) *Cluster {
	return New(Config{Nodes: n, Transport: TransportSubstrate, Substrate: opts})
}

// RunLimit is the simulated-time bound every workload driver passes to
// Run. It is a safety net, not a schedule: a run ends at quiescence,
// once no busy event is left (see sim.Engine.Idle), so only a livelocked
// or runaway model reaches it.
const RunLimit = 600 * sim.Second

// Run executes the simulation until it is quiescent (sim.Engine.Idle)
// or limit is reached, returning the final virtual time.
func (c *Cluster) Run(limit sim.Duration) sim.Time {
	return c.Eng.RunUntil(sim.Time(limit))
}

// Addr reports node i's fabric address.
func (c *Cluster) Addr(i int) sock.Addr { return c.Nodes[i].Net.Addr() }

package ethernet

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// buildFabric assembles a spine-leaf fabric with perLeaf stations per
// leaf. Stations attach leaf-round-robin (station i on leaf i%leaves),
// matching the cluster layer's convention.
func buildFabric(t *testing.T, leaves, spines, perLeaf int, cfg FabricConfig) (*sim.Engine, *Fabric, []*Port, []*sink) {
	t.Helper()
	e := sim.NewEngine()
	fb := NewFabric(e, cfg)
	var lf, sp []*Switch
	for i := 0; i < leaves; i++ {
		lf = append(lf, fb.AddSwitch(fmt.Sprintf("leaf%d", i)))
	}
	for i := 0; i < spines; i++ {
		sp = append(sp, fb.AddSwitch(fmt.Sprintf("spine%d", i)))
	}
	for _, l := range lf {
		for _, s := range sp {
			fb.Connect(l, s)
		}
	}
	var ports []*Port
	var sinks []*sink
	for p := 0; p < perLeaf; p++ {
		for _, l := range lf {
			sk := &sink{eng: e}
			sinks = append(sinks, sk)
			ports = append(ports, l.Attach(sk))
		}
	}
	return e, fb, ports, sinks
}

func TestFabricCrossLeafDelivery(t *testing.T) {
	e, fb, ports, sinks := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 1})
	f := &Frame{Src: 0, Dst: 1, PayloadLen: 1000, Payload: "hello", Flow: 7}
	e.After(0, func() { ports[0].Transmit(f) })
	e.Run()
	if len(sinks[1].frames) != 1 {
		t.Fatalf("station 1 received %d frames, want 1", len(sinks[1].frames))
	}
	if sinks[1].frames[0].Payload != "hello" {
		t.Fatal("payload not preserved")
	}
	// Two trunk hops: station wire+prop, (fwd + trunk wire + trunk prop)
	// per trunk, then fwd + wire + prop at the destination leaf.
	wire := f.WireTime()
	want := (wire + propDelay) +
		2*(forwardLatency+wire+propDelay) +
		(forwardLatency + wire + propDelay)
	if got := sinks[1].times[0]; got != sim.Time(want) {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
	var forwards int64
	for _, s := range fb.Switches() {
		forwards += s.Forwards()
	}
	if forwards != 3 {
		t.Fatalf("fabric forwards = %d, want 3 (two trunk hops + final delivery)", forwards)
	}
	path, ok := fb.Path(0, 1, 7)
	if !ok || len(path) != 2 {
		t.Fatalf("Path(0,1,7) = %v, %v; want a 2-trunk path", path, ok)
	}
}

func TestFabricSameLeafDeliveryMatchesStandalone(t *testing.T) {
	// Two stations on one leaf must see exactly a lone switch's
	// latency: the fabric machinery adds nothing to local traffic.
	e, _, ports, sinks := buildFabric(t, 1, 2, 2, FabricConfig{Seed: 1})
	f := &Frame{Src: 0, Dst: 1, PayloadLen: 1000}
	e.After(0, func() { ports[0].Transmit(f) })
	e.Run()
	if len(sinks[1].frames) != 1 {
		t.Fatalf("received %d frames, want 1", len(sinks[1].frames))
	}
	want := f.WireTime() + propDelay + forwardLatency + f.WireTime() + propDelay
	if got := sinks[1].times[0]; got != sim.Time(want) {
		t.Fatalf("delivery at %v, want single-switch latency %v", got, want)
	}
}

func TestFabricBroadcastPanics(t *testing.T) {
	e, _, ports, _ := buildFabric(t, 2, 1, 1, FabricConfig{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("broadcast on a fabric did not panic")
		}
	}()
	e.After(0, func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: broadcast, PayloadLen: 64})
	})
	e.Run()
}

func TestECMPSpreadsFlows(t *testing.T) {
	_, fb, _, _ := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 42})
	first := map[int]int{}
	for flow := uint32(0); flow < 64; flow++ {
		path, ok := fb.Path(0, 1, flow)
		if !ok || len(path) != 2 {
			t.Fatalf("flow %d: path %v ok=%v", flow, path, ok)
		}
		first[path[0]]++
	}
	// Leaf0's two uplinks are trunks 0 (spine0) and 1 (spine1); 64 flows
	// must not all hash onto one of them.
	if len(first) < 2 {
		t.Fatalf("64 flows all took the same uplink: %v", first)
	}
}

func TestECMPDeterministicAcrossRuns(t *testing.T) {
	// Same seed + topology in two independent processes-worth of state
	// must produce identical path assignments for every (pair, flow).
	_, fb1, _, _ := buildFabric(t, 3, 2, 2, FabricConfig{Seed: 7})
	_, fb2, _, _ := buildFabric(t, 3, 2, 2, FabricConfig{Seed: 7})
	for src := Addr(0); src < 6; src++ {
		for dst := Addr(0); dst < 6; dst++ {
			if src == dst {
				continue
			}
			for flow := uint32(0); flow < 16; flow++ {
				p1, ok1 := fb1.Path(src, dst, flow)
				p2, ok2 := fb2.Path(src, dst, flow)
				if ok1 != ok2 || !equalIntSlice(p1, p2) {
					t.Fatalf("path(%d,%d,%d) diverged: %v/%v vs %v/%v",
						src, dst, flow, p1, ok1, p2, ok2)
				}
			}
		}
	}
}

func equalIntSlice(a, b []int) bool {
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

// flowVia finds an ECMP flow label whose 0->1 path crosses the given
// trunk under the current tables.
func flowVia(t *testing.T, fb *Fabric, trunk int) uint32 {
	t.Helper()
	for flow := uint32(0); flow < 256; flow++ {
		path, ok := fb.Path(0, 1, flow)
		if !ok {
			continue
		}
		for _, id := range path {
			if id == trunk {
				return flow
			}
		}
	}
	t.Fatalf("no flow hashes across trunk %d", trunk)
	return 0
}

func TestLinkDownBlackholesThenReroutes(t *testing.T) {
	e, fb, ports, sinks := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 1})
	flow := flowVia(t, fb, 0)
	pl := &faults.Plan{Links: []faults.LinkClause{faults.LinkDown(0, 1*sim.Millisecond, 0)}}
	fb.ApplyFaults(pl)
	// t=1.5ms: link is down but undetected — the frame blackholes.
	e.At(sim.Time(1500*sim.Microsecond), func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100, Flow: flow})
	})
	// t=3ms: detection (1ms down + 1ms DetectDelay) has rerouted; the
	// same flow must arrive over the surviving spine.
	e.At(sim.Time(3*sim.Millisecond), func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100, Flow: flow, Payload: "after"})
	})
	e.Run()
	if len(sinks[1].frames) != 1 || sinks[1].frames[0].Payload != "after" {
		t.Fatalf("want exactly the post-reroute frame, got %d frames", len(sinks[1].frames))
	}
	dab, dba := fb.Trunks()[0].Drops()
	if dab+dba != 1 {
		t.Fatalf("trunk0 drops = %d, want 1 (the blackholed frame)", dab+dba)
	}
	if fb.reroutes.Value != 1 {
		t.Fatalf("reroutes = %d, want 1", fb.reroutes.Value)
	}
	if path, ok := fb.Path(0, 1, flow); !ok || containsInt(path, 0) {
		t.Fatalf("post-reroute path %v still uses trunk 0", path)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestLinkRecoveryRestoresPaths(t *testing.T) {
	e, fb, _, _ := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 1})
	var events []RouteEvent
	fb.Subscribe(func(ev RouteEvent) { events = append(events, ev) })
	pl := &faults.Plan{Links: []faults.LinkClause{
		faults.LinkDown(0, 1*sim.Millisecond, 2*sim.Millisecond),
		faults.LinkDown(0, 5*sim.Millisecond, 6*sim.Millisecond),
	}}
	fb.ApplyFaults(pl)
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	// Two flaps: down/up, down/up — four transitions, four reroutes.
	if len(events) != 4 || fb.reroutes.Value != 4 {
		t.Fatalf("events=%d reroutes=%d, want 4 each", len(events), fb.reroutes.Value)
	}
	wantKinds := []string{"link-down", "link-up", "link-down", "link-up"}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] || ev.Link != 0 || !ev.Rerouted {
			t.Fatalf("event %d = %+v, want kind %s on link 0", i, ev, wantKinds[i])
		}
	}
	// After the final recovery both uplinks are back in the ECMP sets.
	if _, ok := fb.Path(0, 1, flowVia(t, fb, 0)); !ok {
		t.Fatal("trunk 0 not restored to service")
	}
}

func TestSwitchCrashReroutesAroundSpine(t *testing.T) {
	e, fb, ports, sinks := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 1})
	// Spine0 is switch id 2 (after the two leaves); its trunks are 0 and 2.
	pl := &faults.Plan{SwitchCrashes: []faults.SwitchCrash{faults.SwitchDown(2, 1*sim.Millisecond)}}
	fb.ApplyFaults(pl)
	flow := flowVia(t, fb, 0) // initially routed through spine0
	e.At(sim.Time(3*sim.Millisecond), func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100, Flow: flow})
	})
	e.Run()
	if len(sinks[1].frames) != 1 {
		t.Fatalf("delivered %d frames after spine crash, want 1", len(sinks[1].frames))
	}
	if fb.switchDeaths.Value != 1 || fb.reroutes.Value != 1 {
		t.Fatalf("deaths=%d reroutes=%d, want 1 each", fb.switchDeaths.Value, fb.reroutes.Value)
	}
	path, ok := fb.Path(0, 1, flow)
	if !ok || containsInt(path, 0) || containsInt(path, 2) {
		t.Fatalf("post-crash path %v still uses spine0's trunks", path)
	}
}

func TestNoRerouteControlKeepsBlackholing(t *testing.T) {
	e, fb, ports, sinks := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 1, NoReroute: true})
	flow := flowVia(t, fb, 0)
	pl := &faults.Plan{Links: []faults.LinkClause{faults.LinkDown(0, 1*sim.Millisecond, 0)}}
	fb.ApplyFaults(pl)
	// Long after detection would have rerouted, the frozen tables still
	// aim the flow at the dead trunk.
	e.At(sim.Time(10*sim.Millisecond), func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100, Flow: flow})
	})
	e.Run()
	if len(sinks[1].frames) != 0 {
		t.Fatal("no-reroute control delivered a frame over a dead trunk")
	}
	if fb.reroutes.Value != 0 {
		t.Fatalf("reroutes = %d under NoReroute, want 0", fb.reroutes.Value)
	}
	dab, dba := fb.Trunks()[0].Drops()
	if dab+dba != 1 {
		t.Fatalf("trunk0 drops = %d, want 1", dab+dba)
	}
}

func TestLinkDegradeDropsWithoutReroute(t *testing.T) {
	e, fb, ports, sinks := buildFabric(t, 2, 2, 1, FabricConfig{Seed: 1})
	flow := flowVia(t, fb, 0)
	pl := &faults.Plan{Links: []faults.LinkClause{
		{Link: 0, Loss: 1.0}, // 100% loss, link nominally up
	}}
	fb.ApplyFaults(pl)
	e.After(0, func() {
		ports[0].Transmit(&Frame{Src: 0, Dst: 1, PayloadLen: 100, Flow: flow})
	})
	e.Run()
	if len(sinks[1].frames) != 0 {
		t.Fatal("frame survived a 100%-loss degraded trunk")
	}
	if fb.reroutes.Value != 0 || fb.linkDowns.Value != 0 {
		t.Fatal("degrade clause tripped the failure detector")
	}
}

// Property (ISSUE 8 satellite): on a 2-spine fabric, removing any
// single trunk or any single spine leaves every host pair connected,
// and the router finds the surviving path — both on the forwarding
// tables (Path) and on the wire (frames actually delivered).
func TestSingleFailureSurvivabilityProperty(t *testing.T) {
	for leaves := 2; leaves <= 5; leaves++ {
		const spines = 2
		trunks := leaves * spines
		type failure struct {
			name string
			plan *faults.Plan
		}
		var failures []failure
		for tr := 0; tr < trunks; tr++ {
			failures = append(failures, failure{
				name: fmt.Sprintf("trunk%d", tr),
				plan: &faults.Plan{Links: []faults.LinkClause{faults.LinkDown(tr, 1*sim.Millisecond, 0)}},
			})
		}
		for sp := 0; sp < spines; sp++ {
			failures = append(failures, failure{
				name: fmt.Sprintf("spine%d", sp),
				plan: &faults.Plan{SwitchCrashes: []faults.SwitchCrash{faults.SwitchDown(leaves+sp, 1*sim.Millisecond)}},
			})
		}
		for _, fail := range failures {
			e, fb, ports, sinks := buildFabric(t, leaves, spines, 1, FabricConfig{Seed: 99})
			fb.ApplyFaults(fail.plan)
			n := len(ports)
			sent := 0
			e.At(sim.Time(5*sim.Millisecond), func() {
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src == dst {
							continue
						}
						for flow := uint32(0); flow < 4; flow++ {
							if path, ok := fb.Path(Addr(src), Addr(dst), flow); !ok {
								t.Errorf("%d leaves, %s: no route %d->%d flow %d (path %v)",
									leaves, fail.name, src, dst, flow, path)
							}
							ports[src].Transmit(&Frame{Src: Addr(src), Dst: Addr(dst), PayloadLen: 64, Flow: flow})
							sent++
						}
					}
				}
			})
			e.Run()
			got := 0
			for _, sk := range sinks {
				got += len(sk.frames)
			}
			if got != sent {
				t.Fatalf("%d leaves, %s: delivered %d of %d frames after failure",
					leaves, fail.name, got, sent)
			}
		}
	}
}

package main

import (
	"slices"
	"testing"
)

func TestAttribute(t *testing.T) {
	const (
		yield = "repro/internal/sim.(*Proc).yield"
		sleep = "repro/internal/sim.(*Proc).Sleep"
		step  = "repro/internal/sim.(*Engine).step"
		loop  = "repro/internal/sim.(*Engine).RunUntil"
		write = "repro/internal/core.(*Conn).Write"
		dma   = "repro/internal/nic.(*NIC).DMA"
		retry = "repro/internal/retry.Backoff"
		run   = "repro/internal/apps.RunWeb"
	)
	cases := []struct {
		name        string
		frames      []string
		self, owner string
	}{
		{"proc hand-off", []string{"runtime.chanrecv1", yield, sleep, write, "main.client"}, "sim.handoff_s", "core.owner_s"},
		{"engine side of the hand-off", []string{"runtime.chansend1", step, "repro/internal/sim.(*Engine).Spawn.func2", loop, run}, "sim.handoff_s", "sim.engine_s"},
		{"event callback", []string{"runtime.mapaccess", dma, loop, run}, "nic.self_s", "nic.owner_s"},
		{"engine heap", []string{"container/heap.Pop", loop, run}, "sim.self_s", "sim.engine_s"},
		{"proc trampoline", []string{"runtime.chanrecv1", "repro/internal/sim.(*Engine).Spawn.func1"}, "sim.self_s", "sim.engine_s"},
		{"unlisted package", []string{retry, write}, "other.self_s", "other.owner_s"},
		{"benchmark code", []string{"runtime.mallocgc", "main.(*echoRun).client", sleep}, "bench.self_s", "bench.owner_s"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc_s", "runtime.gc_s"},
		{"scheduler", []string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched_s", "runtime.sched_s"},
	}
	for _, tc := range cases {
		self, owner := attribute(tc.frames)
		if self != tc.self || owner != tc.owner {
			t.Errorf("%s: got (%s, %s), want (%s, %s)", tc.name, self, owner, tc.self, tc.owner)
		}
	}
}

// TestProfilePartitions profiles a small real run and checks that each
// attribution view charges every sample to exactly one declared metric.
func TestProfilePartitions(t *testing.T) {
	w, _ := findWorkload("echo-substrate")
	var samples []cpuSample
	for ops := 4000; len(samples) == 0; ops *= 2 {
		if ops > 256000 {
			t.Fatal("profile never caught a sample")
		}
		r, err := runRep(w, 1, 0, params{reps: 1, ops: ops}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if samples, err = parseProfile(r.profile); err != nil {
			t.Fatal(err)
		}
	}
	declared := map[string]bool{}
	for _, s := range perLayer {
		declared[s.Name] = true
	}
	hp := attributeAll(samples)
	var repoFrames bool
	for _, s := range samples {
		repoFrames = repoFrames || slices.ContainsFunc(s.frames, func(fn string) bool { return layerOf(fn) != "" })
	}
	if !repoFrames {
		t.Error("no sample has a repository frame: function names did not decode")
	}
	for view, buckets := range map[string]map[string]int64{"self": hp.self, "owner": hp.owner} {
		var sum int64
		for name, ns := range buckets {
			if !declared[name] {
				t.Errorf("%s view charges undeclared metric %q", view, name)
			}
			sum += ns
		}
		if sum != hp.total || hp.total <= 0 {
			t.Errorf("%s view sums to %d ns, profile total %d ns", view, sum, hp.total)
		}
	}
}

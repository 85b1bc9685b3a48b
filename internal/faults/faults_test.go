package faults

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestClauseWindowAndLinkMatching(t *testing.T) {
	pl := &Plan{Clauses: []Clause{
		{From: 10, Until: 20, Src: 1, Dst: 2, Partition: true},
	}}
	r := sim.NewRand(1)
	if act := pl.Eval(r, 5, 1, 2); act.Drop {
		t.Fatal("clause fired before its window")
	}
	if act := pl.Eval(r, 15, 1, 2); !act.Drop || !act.Partition {
		t.Fatal("partition clause did not fire inside its window")
	}
	if act := pl.Eval(r, 15, 2, 1); act.Drop {
		t.Fatal("clause fired on the reverse direction")
	}
	if act := pl.Eval(r, 20, 1, 2); act.Drop {
		t.Fatal("clause fired at its exclusive end")
	}
}

func TestUntilZeroMeansForever(t *testing.T) {
	pl := &Plan{Clauses: nodeDown(3, 0, 0)}
	r := sim.NewRand(1)
	if act := pl.Eval(r, sim.Duration(1e15), 3, 0); !act.Drop {
		t.Fatal("open-ended NodeDown clause expired")
	}
	if act := pl.Eval(r, sim.Duration(1e15), 0, 3); !act.Drop {
		t.Fatal("NodeDown must cut both directions")
	}
}

// TestZeroPlanDrawsNoRandomness is the happy-path guarantee: a plan with
// all-zero rates must not consume PRNG state, so installing one cannot
// perturb a deterministic run.
func TestZeroPlanDrawsNoRandomness(t *testing.T) {
	pl := &Plan{Clauses: []Clause{Uniform(0, 0, 0, 0), {Src: Any, Dst: Any}}}
	r1, r2 := sim.NewRand(42), sim.NewRand(42)
	for now := sim.Duration(0); now < 100; now++ {
		pl.Eval(r1, now, 0, 1)
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("all-zero plan consumed PRNG state")
	}
}

func TestEvalDeterministicPerSeed(t *testing.T) {
	pl := &Plan{Clauses: []Clause{Uniform(0.3, 0.2, 0.2, 0.3)}}
	run := func(seed uint64) []action {
		r := sim.NewRand(seed)
		var out []action
		for i := 0; i < 200; i++ {
			out = append(out, pl.Eval(r, sim.Duration(i), 0, 1))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	bad := []Plan{
		{Clauses: []Clause{{Src: Any, Dst: Any, Loss: -0.1}}},
		{Clauses: []Clause{{Src: Any, Dst: Any, Dup: 1.5}}},
		{Clauses: []Clause{{Src: Any, Dst: Any, Corrupt: math.NaN()}}},
		{Clauses: []Clause{{From: 20, Until: 10, Src: Any, Dst: Any}}},
		{Crashes: []crash{{Node: -1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("plan %d validated despite malformed content", i)
		}
	}
	good := &Plan{Clauses: []Clause{Uniform(0.1, 0, 1, 0)}, Crashes: []crash{CrashAt(1, 5)}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestNormalizedClamps(t *testing.T) {
	pl := &Plan{Clauses: []Clause{{Src: Any, Dst: Any, Loss: -1, Dup: 2, Corrupt: math.NaN(), Reorder: 0.5}}}
	n := pl.Normalized()
	c := n.Clauses[0]
	if c.Loss != 0 || c.Dup != 1 || c.Corrupt != 0 || c.Reorder != 0.5 {
		t.Fatalf("normalization wrong: %+v", c)
	}
	// The original is untouched.
	if pl.Clauses[0].Dup != 2 {
		t.Fatal("Normalized mutated the source plan")
	}
}

func TestFlapSchedule(t *testing.T) {
	cs := flap(1, 10*sim.Millisecond, 50*sim.Millisecond, 5*sim.Millisecond, 3)
	if len(cs) != 6 {
		t.Fatalf("flap clause count = %d, want 6", len(cs))
	}
	pl := &Plan{Clauses: cs}
	r := sim.NewRand(1)
	down := func(at sim.Duration) bool { return pl.Eval(r, at, 1, 0).Drop }
	if !down(12*sim.Millisecond) || !down(62*sim.Millisecond) || !down(112*sim.Millisecond) {
		t.Fatal("flap down-windows missing")
	}
	if down(30*sim.Millisecond) || down(200*sim.Millisecond) {
		t.Fatal("flap fired outside its down-windows")
	}
}

func TestRandomPlanSeedStable(t *testing.T) {
	a := RandomPlan(9, 4, sim.Second)
	b := RandomPlan(9, 4, sim.Second)
	if len(a.Clauses) != len(b.Clauses) {
		t.Fatal("randomized plans differ across identical seeds")
	}
	for i := range a.Clauses {
		if a.Clauses[i] != b.Clauses[i] {
			t.Fatalf("clause %d differs: %+v vs %+v", i, a.Clauses[i], b.Clauses[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("random plan invalid: %v", err)
	}
	c := RandomPlan(10, 4, sim.Second)
	same := len(a.Clauses) == len(c.Clauses)
	if same {
		for i := range a.Clauses {
			if a.Clauses[i] != c.Clauses[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
}

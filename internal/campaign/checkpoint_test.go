package campaign

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// heavyBenches are skipped under -short (the race target) to keep the gate
// fast; the full run covers every benchmark.
var heavyBenches = map[string]bool{"hpccg": true, "xsbench": true, "comd": true}

func equivalencePlans(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 100
}

// TestCheckpointedClassifyEquivalence is the differential gate of the
// checkpointing layer: for every prog benchmark and both fault modes,
// checkpointed and from-scratch Classify must agree on outcome, injected
// ID, and dynamic count for each of ≥100 seeded plans. (The injected bit
// and output sequence are covered by the interp-level equivalence tests;
// here outcome equality already hinges on output equality.)
func TestCheckpointedClassifyEquivalence(t *testing.T) {
	nPlans := equivalencePlans(t)
	for _, name := range prog.Names() {
		if testing.Short() && heavyBenches[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			in := b.Encode(b.RefInput())
			gScratch, err := NewGolden(b.Prog, in, b.MaxDyn)
			if err != nil {
				t.Fatal(err)
			}
			if gScratch.Checkpoints != nil {
				t.Fatal("NewGolden attached checkpoints")
			}
			gCk, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			if gCk.Checkpoints == nil || gCk.Checkpoints.Snapshots() == 0 {
				t.Fatal("auto checkpointing recorded no snapshots")
			}
			if gCk.DynCount != gScratch.DynCount || !interp.OutputEqual(gCk.Output, gScratch.Output) {
				t.Fatal("checkpointed golden diverged from plain golden")
			}

			planRNG := xrand.New(42)
			rngA, rngB := xrand.New(7), xrand.New(7)
			mA, mB := interp.NewInjector(b.Prog), interp.NewInjector(b.Prog)
			classifyBoth := func(kind string, i int, plan fault.Plan) {
				oA, rA := Classify(mA, gScratch, &plan, rngA, nil)
				oB, rB := Classify(mB, gCk, &plan, rngB, nil)
				if oA != oB || rA.InjectedID != rB.InjectedID || rA.InjectedBit != rB.InjectedBit || rA.DynCount != rB.DynCount {
					t.Fatalf("%s plan %d (%v): scratch (%v, %d, %d, %d) vs checkpointed (%v, %d, %d, %d)",
						kind, i, plan, oA, rA.InjectedID, rA.InjectedBit, rA.DynCount, oB, rB.InjectedID, rB.InjectedBit, rB.DynCount)
				}
			}
			for i := 0; i < nPlans; i++ {
				classifyBoth("dynamic", i, fault.SampleDynamic(planRNG, gScratch.DynCount))
			}

			var ids []int
			for id, n := range gScratch.InstrCounts {
				if n > 0 {
					ids = append(ids, id)
				}
			}
			for i := 0; i < nPlans; i++ {
				id := ids[i%len(ids)]
				classifyBoth("static", i, fault.SampleStatic(planRNG, id, b.Prog.InstrType(id), gScratch.InstrCounts[id]))
			}

			if st := gCk.CheckpointStats(); st.Restored == 0 {
				t.Fatalf("no trial resumed from a snapshot: %+v", st)
			}
		})
	}
}

// TestCheckpointedParallelEquivalence pins the worker-count contract on
// checkpointed campaigns: Overall and PerInstruction tallies must be
// identical from-scratch serial, checkpointed at 1 worker, and checkpointed
// at 4 workers.
func TestCheckpointedParallelEquivalence(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 80
	}
	for _, name := range []string{"pathfinder", "fft"} {
		b := prog.Build(name)
		in := b.Encode(b.RefInput())
		gScratch, err := NewGolden(b.Prog, in, b.MaxDyn)
		if err != nil {
			t.Fatal(err)
		}
		gCk, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
		if err != nil {
			t.Fatal(err)
		}

		const seed = 11
		ref := OverallParallel(b.Prog, gScratch, trials, ParallelOptions{Workers: 1, Seed: seed})
		for _, workers := range []int{1, 4} {
			got := OverallParallel(b.Prog, gCk, trials, ParallelOptions{Workers: workers, Seed: seed})
			if got != ref {
				t.Fatalf("%s Overall at %d workers: checkpointed %+v vs scratch %+v", name, workers, got, ref)
			}
		}

		ids := AllInstructionIDs(b.Prog)
		refPI := PerInstructionParallel(b.Prog, gScratch, ids, 5, ParallelOptions{Workers: 1, Seed: seed})
		for _, workers := range []int{1, 4} {
			got := PerInstructionParallel(b.Prog, gCk, ids, 5, ParallelOptions{Workers: workers, Seed: seed})
			if !reflect.DeepEqual(got, refPI) {
				t.Fatalf("%s PerInstruction at %d workers diverged from scratch", name, workers)
			}
		}
	}
}

// TestCheckpointConvergedCounters: trials that re-join the golden end
// early without changing the tally, and the converged counters derive from
// the dyn clock alone, so every checkpoint counter is identical at workers
// 1 and 4 and at 1, 2 and 4 merged trial ranges.
func TestCheckpointConvergedCounters(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 100
	}
	const seed = 5
	for _, name := range []string{"needle", "pathfinder"} {
		b := prog.Build(name)
		in := b.Encode(b.RefInput())
		gScratch, err := NewGolden(b.Prog, in, b.MaxDyn)
		if err != nil {
			t.Fatal(err)
		}
		ref := OverallParallel(b.Prog, gScratch, trials, ParallelOptions{Workers: 1, Seed: seed})
		var want interp.CheckpointStats
		for k, run := range []struct {
			label string
			run   func(g *Golden) Counts
		}{
			{"workers 1", func(g *Golden) Counts {
				return OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 1, Seed: seed})
			}},
			{"workers 4", func(g *Golden) Counts {
				return OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 4, Seed: seed})
			}},
			{"ranges 1", func(g *Golden) Counts {
				return mergedRanges(b.Prog, g, trials, 1, ParallelOptions{Workers: 2, Seed: seed})
			}},
			{"ranges 2", func(g *Golden) Counts {
				return mergedRanges(b.Prog, g, trials, 2, ParallelOptions{Workers: 2, Seed: seed})
			}},
			{"ranges 4", func(g *Golden) Counts {
				return mergedRanges(b.Prog, g, trials, 4, ParallelOptions{Workers: 2, Seed: seed})
			}},
		} {
			g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			if c := run.run(g); c != ref {
				t.Fatalf("%s %s: tally %+v, scratch %+v", name, run.label, c, ref)
			}
			st := g.CheckpointStats()
			if k == 0 {
				if st.Converged == 0 || st.ConvergedDyn == 0 {
					t.Fatalf("%s: no trial converged: %+v", name, st)
				}
				want = st
			} else if st != want {
				t.Fatalf("%s %s: checkpoint counters %+v, workers 1 %+v", name, run.label, st, want)
			}
		}
	}
}

// TestCheckpointedPropagationEquivalence compares full interp results —
// output sequence, propagation statistics, injected bit — between scratch
// and checkpoint-resumed taint-tracking runs on a real benchmark.
func TestCheckpointedPropagationEquivalence(t *testing.T) {
	b := prog.Build("pathfinder")
	in := b.Encode(b.RefInput())
	g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	budget := g.DynCount*hangBudgetMultiplier + hangBudgetSlack
	planRNG := xrand.New(5)
	trials := 30
	if testing.Short() {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		plan := fault.SampleDynamic(planRNG, g.DynCount)
		opts := func(rng *xrand.RNG) interp.Options {
			return interp.Options{Plan: &plan, FaultRNG: rng, MaxDyn: budget, TrackPropagation: true}
		}
		scratch := interp.Run(b.Prog, g.Input, opts(xrand.New(3)))
		resumed := interp.RunWithCheckpoints(b.Prog, g.Input, g.Checkpoints, opts(xrand.New(3)))
		if scratch.DynCount != resumed.DynCount || scratch.Injected != resumed.Injected ||
			scratch.InjectedID != resumed.InjectedID || scratch.InjectedBit != resumed.InjectedBit ||
			scratch.BudgetExceeded != resumed.BudgetExceeded {
			t.Fatalf("plan %v: result mismatch\nscratch: %+v\nresumed: %+v", plan, scratch, resumed)
		}
		if (scratch.Trap == nil) != (resumed.Trap == nil) {
			t.Fatalf("plan %v: trap mismatch: %v vs %v", plan, scratch.Trap, resumed.Trap)
		}
		if !interp.OutputEqual(scratch.Output, resumed.Output) {
			t.Fatalf("plan %v: output mismatch", plan)
		}
		if !reflect.DeepEqual(scratch.Propagation, resumed.Propagation) {
			t.Fatalf("plan %v: propagation mismatch: %+v vs %+v", plan, scratch.Propagation, resumed.Propagation)
		}
	}
}

// TestEnsureCheckpointsIdempotent covers the attach-once contract and the
// explicit-interval constructor path.
func TestEnsureCheckpointsIdempotent(t *testing.T) {
	b := prog.Build("needle")
	in := b.Encode(b.RefInput())
	g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, 500)
	if err != nil {
		t.Fatal(err)
	}
	if g.Checkpoints == nil || g.Checkpoints.Interval() != 500 {
		t.Fatalf("explicit interval not honored: %+v", g.Checkpoints.Stats())
	}
	before := g.Checkpoints
	if err := g.EnsureCheckpoints(b.Prog); err != nil {
		t.Fatal(err)
	}
	if g.Checkpoints != before {
		t.Fatal("EnsureCheckpoints replaced existing checkpoints")
	}
}

package interp

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// batchGolden runs the program with profiling checkpoints at the given
// interval and returns the result.
func batchGolden(t *testing.T, p *Program, args []uint64, interval int64) *Result {
	t.Helper()
	r := Run(p, args, Options{Profile: true, CheckpointInterval: interval})
	if r.Trap != nil {
		t.Fatalf("golden trapped: %v", r.Trap)
	}
	if len(r.Checkpoints.snaps) == 0 {
		t.Fatal("golden recorded no snapshots")
	}
	return r
}

// trialBudget mirrors the campaign hang budget loosely; the white-box
// programs here are tiny, so a flat slack suffices.
func trialBudget(r *Result) int64 { return r.DynCount*3 + 10000 }

// runSerialRef runs the serial reference for one plan: RunFrom the same
// base snapshot the batch uses.
func runSerialRef(p *Program, base *Snapshot, plan fault.Plan, rng *xrand.RNG, maxDyn int64) *Result {
	opts := Options{Plan: &plan, FaultRNG: rng, MaxDyn: maxDyn}
	if base == nil {
		return Run(p, nil, opts)
	}
	return RunFrom(p, base, opts)
}

// TestBatchInjectFirstInstructionAfterCheckpoint pins the tightest fork
// geometry: a dynamic injection at base.dyn+1 — the very first instruction
// executed after the base snapshot — must fork (not fall back) and match
// the serial resume bit for bit.
func TestBatchInjectFirstInstructionAfterCheckpoint(t *testing.T) {
	p := buildSumLoop(t)
	args := []uint64{200}
	g := batchGolden(t, p, args, 50)
	budget := trialBudget(g)
	for _, base := range g.Checkpoints.snaps {
		// Bit 0 is valid for every result width (cmps are i1).
		plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: base.dyn + 1, Bit: 0}
		want := runSerialRef(p, base, plan, xrand.New(1), budget)
		var got Result
		st := BatchRun(p, args, g.Checkpoints, base, []BatchTrial{{Plan: plan, RNG: xrand.New(1)}},
			Options{MaxDyn: budget}, func(i int, r *Result) { got = *r })
		if st.Forked != 1 || st.Fallback != 0 {
			t.Fatalf("dyn %d: expected a fork, got %+v", base.dyn+1, st)
		}
		sameResult(t, "first-after-checkpoint", want, &got)
	}
}

// TestBatchSameDynIndexTrials: two trials aimed at the same dynamic index
// share one fork and still classify independently through their own RNG
// streams (distinct seeds draw distinct fault bits).
func TestBatchSameDynIndexTrials(t *testing.T) {
	p := buildMemory(t)
	args := []uint64{30}
	g := batchGolden(t, p, args, 40)
	base := g.Checkpoints.snaps[0]
	budget := trialBudget(g)
	target := base.dyn + 17
	planRNG := xrand.New(9)
	mkPlan := func() fault.Plan {
		pl := fault.SampleDynamic(planRNG, g.DynCount)
		pl.TargetDyn = target // same index, deferred bit drawn per trial
		return pl
	}
	trials := []BatchTrial{
		{Plan: mkPlan(), RNG: xrand.New(100)},
		{Plan: mkPlan(), RNG: xrand.New(200)},
	}
	wants := []*Result{
		runSerialRef(p, base, trials[0].Plan, xrand.New(100), budget),
		runSerialRef(p, base, trials[1].Plan, xrand.New(200), budget),
	}
	var got []Result
	st := BatchRun(p, args, g.Checkpoints, base, trials, Options{MaxDyn: budget}, func(i int, r *Result) {
		got = append(got, *r)
	})
	if st.Forked != 2 {
		t.Fatalf("expected both trials forked: %+v", st)
	}
	for i := range wants {
		sameResult(t, "same-dyn-index", wants[i], &got[i])
	}
}

// TestBatchInjectEveryDynIndex sweeps every dynamic instruction of a
// program with fused pairs — including targets that land on the second
// sub-instruction of a pair — and checks each batched trial against the
// serial run. Trunk and injection window run the unfused arrays and the
// tail the fused ones, so this is the exactness gate for the hand-off
// inside a fused pair.
func TestBatchInjectEveryDynIndex(t *testing.T) {
	for name, build := range map[string]func(testing.TB) *Program{
		"sumloop": buildSumLoop, "memory": buildMemory, "factorial": buildFactorial,
	} {
		t.Run(name, func(t *testing.T) {
			p := build(t)
			args := []uint64{16}
			g := batchGolden(t, p, args, 11)
			base := g.Checkpoints.snaps[0]
			budget := trialBudget(g)
			var trials []BatchTrial
			var wants []*Result
			for d := base.dyn + 1; d <= g.DynCount; d++ {
				// Bit 0 is valid for every result width (cmps are i1).
				plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: d, Bit: 0}
				// Serial reference on the UNFUSED engine from scratch:
				// batched trials must agree across both engine and resume
				// path.
				wants = append(wants, Run(p, args, Options{Plan: &plan, MaxDyn: budget}))
				trials = append(trials, BatchTrial{Plan: plan})
			}
			idx := 0
			BatchRun(p, args, g.Checkpoints, base, trials, Options{MaxDyn: budget}, func(i int, r *Result) {
				sameResult(t, "sweep", wants[i], r)
				idx++
			})
			if idx != len(trials) {
				t.Fatalf("report called %d times for %d trials", idx, len(trials))
			}
		})
	}
}

// TestBatchStaticOccurrenceSweep does the same exhaustive sweep for
// static-mode plans: every executed occurrence of every static instruction,
// resumed from a profiled snapshot.
func TestBatchStaticOccurrenceSweep(t *testing.T) {
	p := buildSumLoop(t)
	args := []uint64{24}
	g := batchGolden(t, p, args, 15)
	base := g.Checkpoints.snaps[1]
	budget := trialBudget(g)
	var trials []BatchTrial
	var wants []*Result
	for id, n := range g.InstrCounts {
		for occ := base.counts.at(id) + 1; occ <= n; occ++ {
			plan := fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 0}
			wants = append(wants, Run(p, args, Options{Plan: &plan, MaxDyn: budget}))
			trials = append(trials, BatchTrial{Plan: plan})
		}
	}
	st := BatchRun(p, args, g.Checkpoints, base, trials, Options{MaxDyn: budget}, func(i int, r *Result) {
		sameResult(t, "static-sweep", wants[i], r)
	})
	if st.Forked != len(trials) {
		t.Fatalf("expected every static trial forked: %+v", st)
	}
}

// TestBatchFallbackPastTrunkEnd: a dynamic target past the program's end
// means the trunk returns before the fork is captured; the trial must fall
// back to the serial path and report the uninjected result.
func TestBatchFallbackPastTrunkEnd(t *testing.T) {
	p := buildFactorial(t)
	args := []uint64{9}
	g := batchGolden(t, p, args, 10)
	base := g.Checkpoints.snaps[0]
	budget := trialBudget(g)
	inRange := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: base.dyn + 3, Bit: 0}
	past := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: g.DynCount + budget, Bit: 0}
	wants := []*Result{
		runSerialRef(p, base, inRange, nil, budget),
		runSerialRef(p, base, past, nil, budget),
	}
	var n int
	st := BatchRun(p, args, g.Checkpoints, base, []BatchTrial{{Plan: inRange}, {Plan: past}},
		Options{MaxDyn: budget}, func(i int, r *Result) {
			sameResult(t, "fallback", wants[i], r)
			n++
		})
	if n != 2 || st.Forked != 1 || st.Fallback != 1 || st.FallbackRestored != 1 {
		t.Fatalf("fork/fallback split wrong: %+v (reported %d)", st, n)
	}
}

// TestBatchBaseSnapshotPastBudget: a batch whose base snapshot lies past
// the trials' dyn budget must start from the program entry, as
// Injector.Trial does (Checkpoints.startFor). A run from the entry exceeds
// the budget before it reaches the snapshot, so the trial must hang at
// MaxDyn+1 like Run, not report the snapshot's dyn+1.
func TestBatchBaseSnapshotPastBudget(t *testing.T) {
	p := buildSumLoop(t)
	args := []uint64{200}
	g := batchGolden(t, p, args, 120)
	base := g.Checkpoints.snaps[0]
	if base.dyn != 122 {
		t.Fatalf("first snapshot at dyn %d, want 122", base.dyn)
	}
	const maxDyn = 117
	plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: base.dyn + 1, Bit: 0}
	want := Run(p, args, Options{Plan: &plan, MaxDyn: maxDyn})
	if !want.BudgetExceeded || want.DynCount != maxDyn+1 {
		t.Fatalf("Run: budget exceeded %v at dyn %d, want a hang at dyn %d", want.BudgetExceeded, want.DynCount, maxDyn+1)
	}
	var got Result
	n := 0
	st := BatchRun(p, args, g.Checkpoints, base, []BatchTrial{{Plan: plan}}, Options{MaxDyn: maxDyn},
		func(i int, r *Result) { got = *r; n++ })
	if n != 1 {
		t.Fatalf("report called %d times for 1 trial", n)
	}
	sameResult(t, "base-past-budget", want, &got)
	if st.Fallback != 1 || st.FallbackRestored != 0 {
		t.Fatalf("trial did not start from the entry: %+v", st)
	}
}

// TestBatchSnapshotImmutableUnderConcurrentForks runs several BatchRun
// executions concurrently off the SAME base snapshot (as campaign workers
// do) and verifies the snapshot's memory and register chunks are
// bit-identical afterwards. Run under -race this also proves the forks
// never write shared snapshot state.
func TestBatchSnapshotImmutableUnderConcurrentForks(t *testing.T) {
	p := buildMemory(t)
	args := []uint64{30}
	g := batchGolden(t, p, args, 40)
	base := g.Checkpoints.snaps[1]
	budget := trialBudget(g)

	memBefore, regsBefore := chunkCopies(base.mem), chunkCopies(base.regs)

	plans := make([]fault.Plan, 32)
	for i := range plans {
		plans[i] = fault.SampleDynamic(xrand.New(uint64(i)+1), g.DynCount)
		if plans[i].TargetDyn <= base.dyn {
			plans[i].TargetDyn = base.dyn + int64(i) + 1
		}
	}
	wants := make([]*Result, len(plans))
	for i := range plans {
		wants[i] = runSerialRef(p, base, plans[i], xrand.New(uint64(i)+77), budget)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trials := make([]BatchTrial, len(plans))
			for i := range plans {
				trials[i] = BatchTrial{Plan: plans[i], RNG: xrand.New(uint64(i) + 77)}
			}
			BatchRun(p, args, g.Checkpoints, base, trials, Options{MaxDyn: budget}, func(i int, r *Result) {
				sameResult(t, "concurrent", wants[i], r)
			})
		}()
	}
	wg.Wait()

	if !slices.Equal(chunkCopies(base.mem), memBefore) {
		t.Fatal("snapshot memory chunks mutated")
	}
	if !slices.Equal(chunkCopies(base.regs), regsBefore) {
		t.Fatal("snapshot register chunks mutated")
	}
}

// TestBatchRunRejectsCampaignOptions pins the option contract.
func TestBatchRunRejectsCampaignOptions(t *testing.T) {
	p := buildSumLoop(t)
	defer func() {
		if recover() == nil {
			t.Fatal("BatchRun accepted a Profile option")
		}
	}()
	BatchRun(p, []uint64{5}, nil, nil, []BatchTrial{{}}, Options{Profile: true}, func(int, *Result) {})
}

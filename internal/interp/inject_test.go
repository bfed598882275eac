package interp_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/duplication"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir/irtest"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// injTrial is one planned trial of the trial-machine tests.
type injTrial struct {
	c      *interp.Checkpoints // nil: the trial starts at the program entry
	plan   fault.Plan
	seed   uint64 // FaultRNG seed, shared by the machine and the reference
	maxDyn int64
}

// injectorTrials plans a mixed trial set for p on args: dynamic plans from
// every fault model, static plans, injections before the first snapshot and
// tight budgets that run out just before the injection or in the tail. Every
// plan runs from the entry, from fused snapshots (what campaign goldens
// record) and from unfused ones, whose tails run on the unfused arrays.
func injectorTrials(p *interp.Program, args []uint64, interval int64, n int, rng *xrand.RNG) []injTrial {
	golden := interp.Run(p, args, interp.Options{Profile: true})
	d := golden.DynCount
	starts := []*interp.Checkpoints{
		nil,
		interp.Run(p, args, interp.Options{Profile: true, CheckpointInterval: interval, Fused: true}).Checkpoints,
		interp.Run(p, args, interp.Options{Profile: true, CheckpointInterval: interval}).Checkpoints,
	}
	var trials []injTrial
	add := func(pl fault.Plan, maxDyn int64) {
		for _, c := range starts {
			trials = append(trials, injTrial{c: c, plan: pl, seed: rng.Uint64(), maxDyn: maxDyn})
		}
	}
	budget := d*3 + 10000
	var ids []int
	for id, cnt := range golden.InstrCounts {
		if cnt > 0 {
			ids = append(ids, id)
		}
	}
	for k := 0; k < n; k++ {
		for _, m := range fault.Models() {
			add(m.Sample(rng, d), budget)
		}
		id := ids[rng.Intn(len(ids))]
		add(fault.SampleStatic(rng, id, p.InstrType(id), golden.InstrCounts[id]), budget)
		// The first snapshot is taken at dyn >= interval, so these plans
		// start at the entry even on a checkpointed golden.
		add(fault.SampleDynamic(rng, min(interval, d)), budget)
		if pl := fault.SampleDynamic(rng, d); pl.TargetDyn > 1 {
			add(pl, pl.TargetDyn-1)
			add(pl, pl.TargetDyn+rng.Int63n(100))
		}
	}
	return trials
}

// runInjectorTrials runs trials in a shuffled order on one machine and
// compares every Result against a fresh interp.Run of the same plan. It
// returns how many trials crashed, hung, were detected and never injected.
func runInjectorTrials(t *testing.T, p *interp.Program, args []uint64, trials []injTrial, rng *xrand.RNG) (crash, hang, detected, uninjected int) {
	t.Helper()
	m := interp.NewInjector(p)
	for _, i := range rng.Perm(len(trials)) {
		tr := &trials[i]
		got := m.Trial(args, tr.c, &tr.plan, xrand.New(tr.seed), tr.maxDyn)
		want := interp.Run(p, args, interp.Options{Plan: &tr.plan, FaultRNG: xrand.New(tr.seed), MaxDyn: tr.maxDyn})
		if got.Injected != want.Injected || got.InjectedID != want.InjectedID ||
			got.InjectedBit != want.InjectedBit || got.DynCount != want.DynCount ||
			got.BudgetExceeded != want.BudgetExceeded || got.DetectedFlag != want.DetectedFlag ||
			got.Ret != want.Ret {
			t.Fatalf("trial %d (%v, budget %d, checkpoints %v): machine %+v, fresh run %+v",
				i, tr.plan, tr.maxDyn, tr.c != nil, *got, *want)
		}
		if (got.Trap == nil) != (want.Trap == nil) || (got.Trap != nil && *got.Trap != *want.Trap) {
			t.Fatalf("trial %d (%v): trap %v, fresh run %v", i, tr.plan, got.Trap, want.Trap)
		}
		if !interp.OutputEqual(got.Output, want.Output) {
			t.Fatalf("trial %d (%v): output %v, fresh run %v", i, tr.plan, got.Output, want.Output)
		}
		switch {
		case !got.Injected:
			uninjected++
		case got.DetectedFlag:
			detected++
		case got.Trap != nil:
			crash++
		case got.BudgetExceeded:
			hang++
		}
	}
	return crash, hang, detected, uninjected
}

// TestInjectorReuse runs one trial machine per program over a shuffled
// trial mix and requires every trial to match a fresh from-scratch run, so
// no state of one trial (trap, budget, injection, occurrence count, pause,
// detection flag, output, frames, registers, memory) leaks into the next.
func TestInjectorReuse(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	rng := xrand.New(2021)
	var crash, hang, detected, uninjected int
	tally := func(c, h, d, u int) { crash, hang, detected, uninjected = crash+c, hang+h, detected+d, uninjected+u }
	for _, name := range prog.Names() {
		b := prog.Build(name)
		in := b.Encode(b.RefInput())
		d := interp.Run(b.Prog, in, interp.Options{}).DynCount
		tally(runInjectorTrials(t, b.Prog, in, injectorTrials(b.Prog, in, interp.AutoCheckpointInterval(d), n, rng), rng))
	}

	// A duplication-protected kernel raises sdc_detect on many faults, so
	// the detection flag must reset between trials.
	b := prog.Build("needle")
	mod, err := duplication.ApplyPass(b.Module, duplication.DuplicableIDs(b.Module))
	if err != nil {
		t.Fatal(err)
	}
	prot, err := interp.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	in := b.Encode(b.RefInput())
	d := interp.Run(prot, in, interp.Options{}).DynCount
	tally(runInjectorTrials(t, prot, in, injectorTrials(prot, in, interp.AutoCheckpointInterval(d), 4*n, rng), rng))

	// Random modules reach fused pairs the kernels do not: inject at every
	// dynamic instruction, with a snapshot every few instructions.
	for k := 0; k < 10*n; k++ {
		p, err := interp.Compile(irtest.RandomModule(rng))
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{uint64(rng.IntRange(-50, 50)), uint64(rng.IntRange(-50, 50)), math.Float64bits(rng.Range(-5, 5))}
		golden := interp.Run(p, args, interp.Options{MaxDyn: 100000})
		if golden.Trap != nil {
			continue
		}
		trials := injectorTrials(p, args, 3, 1, rng)
		c := interp.Run(p, args, interp.Options{Profile: true, CheckpointInterval: 3, Fused: true}).Checkpoints
		for dyn := int64(1); dyn <= golden.DynCount; dyn++ {
			pl := fault.SampleDynamic(rng, golden.DynCount)
			pl.TargetDyn = dyn
			trials = append(trials, injTrial{c: c, plan: pl, seed: rng.Uint64(), maxDyn: golden.DynCount*3 + 1000})
		}
		tally(runInjectorTrials(t, p, args, trials, rng))
	}
	if crash == 0 || hang == 0 || detected == 0 || uninjected == 0 {
		t.Fatalf("trial mix lacks a class: %d crashed, %d hung, %d detected, %d never injected",
			crash, hang, detected, uninjected)
	}
	t.Logf("%d crashed, %d hung, %d detected, %d never injected", crash, hang, detected, uninjected)
}

// TestInjectorAllocs is the allocation gate: a warm machine allocates only
// each trial's Result, crashing trials included.
func TestInjectorAllocs(t *testing.T) {
	for _, name := range prog.Names() {
		b := prog.Build(name)
		in := b.Encode(b.RefInput())
		d := interp.Run(b.Prog, in, interp.Options{}).DynCount
		c := interp.Run(b.Prog, in, interp.Options{Profile: true, CheckpointInterval: interp.AutoCheckpointInterval(d), Fused: true}).Checkpoints
		rng := xrand.New(64)
		models := fault.Models()
		plans := make([]fault.Plan, 64)
		rngs := make([]*xrand.RNG, len(plans))
		for i := range plans {
			plans[i] = models[i%len(models)].Sample(rng, d)
			rngs[i] = xrand.New(uint64(i))
		}
		m := interp.NewInjector(b.Prog)
		crashes := 0
		for i := range plans {
			if m.Trial(in, c, &plans[i], rngs[i], d*3+10000).Trap != nil {
				crashes++
			}
		}
		if crashes == 0 {
			t.Fatalf("%s: the plan set has no crashing trial", name)
		}
		// Finish any collection the set-up started: under -race, a cycle
		// that completes inside the measured runs adds runtime allocations
		// that no trial made.
		runtime.GC()
		allocs := testing.AllocsPerRun(3, func() {
			for i := range plans {
				m.Trial(in, c, &plans[i], rngs[i], d*3+10000)
			}
		})
		if perTrial := allocs / float64(len(plans)); perTrial > 1 {
			t.Errorf("%s: %.2f allocations per trial (%d of %d trials crash), want at most 1", name, perTrial, crashes, len(plans))
		}
	}
}

// sameTrialResult fails unless got equals want in every Result field,
// outputs compared by value.
func sameTrialResult(t *testing.T, label string, got, want *interp.Result) {
	t.Helper()
	g, w := *got, *want
	if !interp.OutputEqual(g.Output, w.Output) {
		t.Fatalf("%s: output %v, fresh run %v", label, g.Output, w.Output)
	}
	g.Output, w.Output = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: machine %+v, fresh run %+v", label, g, w)
	}
}

// TestInjectorConvergence runs trials from every fault model plus static
// plans against a checkpointed golden of every kernel, on one machine per
// kernel and through BatchRun, and requires every Result field to equal a
// fresh Run of the same plan. Trials that re-join the golden at a snapshot
// end there, so this is the exactness gate for converged trials; both
// paths must have ended some trials early.
func TestInjectorConvergence(t *testing.T) {
	per := 20
	if testing.Short() {
		per = 4
	}
	rng := xrand.New(19)
	var trialConv, batchConv int64
	for _, name := range prog.Names() {
		b := prog.Build(name)
		in := b.Encode(b.RefInput())
		golden := interp.Run(b.Prog, in, interp.Options{Profile: true})
		d := golden.DynCount
		c := interp.Run(b.Prog, in, interp.Options{Profile: true, CheckpointInterval: interp.AutoCheckpointInterval(d), Fused: true}).Checkpoints
		var ids []int
		for id, cnt := range golden.InstrCounts {
			if cnt > 0 {
				ids = append(ids, id)
			}
		}
		var plans []fault.Plan
		for k := 0; k < per; k++ {
			for _, m := range fault.Models() {
				plans = append(plans, m.Sample(rng, d))
			}
			id := ids[rng.Intn(len(ids))]
			plans = append(plans, fault.SampleStatic(rng, id, b.Prog.InstrType(id), golden.InstrCounts[id]))
		}
		budget := d*3 + 10000
		wants := make([]*interp.Result, len(plans))
		for i := range plans {
			wants[i] = interp.Run(b.Prog, in, interp.Options{Plan: &plans[i], FaultRNG: xrand.New(uint64(i)), MaxDyn: budget})
		}

		before := c.Stats().Converged
		m := interp.NewInjector(b.Prog)
		for i := range plans {
			got := m.Trial(in, c, &plans[i], xrand.New(uint64(i)), budget)
			sameTrialResult(t, fmt.Sprintf("%s trial %d (%v)", name, i, plans[i]), got, wants[i])
		}
		mid := c.Stats().Converged

		// Batches group trials by the snapshot they resume from, as
		// campaigns do.
		var bases []*interp.Snapshot
		groups := make(map[*interp.Snapshot][]int)
		for i := range plans {
			s := c.ForPlan(&plans[i])
			if _, ok := groups[s]; !ok {
				bases = append(bases, s)
			}
			groups[s] = append(groups[s], i)
		}
		for _, s := range bases {
			idx := groups[s]
			bt := make([]interp.BatchTrial, len(idx))
			for k, i := range idx {
				bt[k] = interp.BatchTrial{Plan: plans[i], RNG: xrand.New(uint64(i))}
			}
			interp.BatchRun(b.Prog, in, c, s, bt, interp.Options{MaxDyn: budget, Fused: true}, func(k int, r *interp.Result) {
				i := idx[k]
				sameTrialResult(t, fmt.Sprintf("%s batched trial %d (%v)", name, i, plans[i]), r, wants[i])
			})
		}
		trialConv += mid - before
		batchConv += c.Stats().Converged - mid
	}
	if trialConv == 0 || batchConv == 0 {
		t.Fatalf("no trial converged: %d per trial, %d batched", trialConv, batchConv)
	}
	t.Logf("%d trials converged per trial, %d batched", trialConv, batchConv)
}

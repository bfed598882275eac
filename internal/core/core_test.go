package core

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func TestFindSmallFIInput(t *testing.T) {
	for _, name := range prog.Names() {
		b := prog.Build(name)
		res, err := FindSmallFIInput(b, 0.95, xrand.New(41))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Coverage < res.TargetCoverage {
			t.Logf("%s: coverage %.2f below target %.2f (best-effort fallback)",
				name, res.Coverage, res.TargetCoverage)
		}
		if res.Golden == nil || len(res.Input) != len(b.Args) {
			t.Fatalf("%s: incomplete result", name)
		}
		// The point of the small input: cheaper than the reference run.
		if res.Golden.DynCount > res.RefDynCount {
			t.Errorf("%s: small input (%d dyn) costlier than reference (%d dyn)",
				name, res.Golden.DynCount, res.RefDynCount)
		}
		t.Logf("%s: small input %v, %d dyn (ref %d), coverage %.2f/%.2f, %d attempts",
			name, res.Input, res.Golden.DynCount, res.RefDynCount, res.Coverage, res.TargetCoverage, res.Attempts)
	}
}

func TestFitnessProperties(t *testing.T) {
	b := prog.Build("pathfinder")
	n := b.Prog.NumInstrs()
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1
	}
	f, dyn := Fitness(b, uniform, b.RefInput())
	if dyn <= 0 {
		t.Fatal("no cost reported")
	}
	// With all scores 1, fitness = sum(N_i)/N_total = 1 exactly.
	if f < 0.999999 || f > 1.000001 {
		t.Fatalf("uniform-score fitness = %v, want 1", f)
	}
	zero := make([]float64, n)
	fz, _ := Fitness(b, zero, b.RefInput())
	if fz != 0 {
		t.Fatalf("zero-score fitness = %v", fz)
	}
}

func TestFitnessInvalidInputScoresZero(t *testing.T) {
	// Force an over-budget run by shrinking MaxDyn.
	b := prog.Build("hpccg")
	small := *b
	small.MaxDyn = 10
	scores := make([]float64, b.Prog.NumInstrs())
	for i := range scores {
		scores[i] = 1
	}
	f, _ := Fitness(&small, scores, b.RefInput())
	if f != 0 {
		t.Fatalf("over-budget input fitness = %v, want 0", f)
	}
}

func TestSearchPipeline(t *testing.T) {
	b := prog.Build("pathfinder")
	opts := DefaultOptions()
	opts.Generations = 12
	opts.PopSize = 8
	opts.TrialsPerRep = 6
	opts.FinalTrials = 150
	opts.Checkpoints = []int{4, 12}
	res, err := Search(b, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.SmallInput == nil || res.Distribution == nil {
		t.Fatal("missing pipeline stages")
	}
	if len(res.BestInput) != len(b.Args) {
		t.Fatalf("best input %v", res.BestInput)
	}
	if res.Final.Trials != 150 {
		t.Fatalf("final FI trials = %d", res.Final.Trials)
	}
	if len(res.FitnessHistory) != 12 {
		t.Fatalf("history length %d", len(res.FitnessHistory))
	}
	// Best fitness must be monotone non-decreasing (elitism).
	for i := 1; i < len(res.FitnessHistory); i++ {
		if res.FitnessHistory[i] < res.FitnessHistory[i-1] {
			t.Fatal("fitness history regressed")
		}
	}
	if len(res.Checkpoints) != 2 || res.Checkpoints[0].Generation != 4 || res.Checkpoints[1].Generation != 12 {
		t.Fatalf("checkpoints = %+v", res.Checkpoints)
	}
	if res.Cost.TotalDyn() <= 0 || res.Cost.TotalTime() <= 0 {
		t.Fatal("cost not accounted")
	}
	if res.Evaluations <= 0 {
		t.Fatal("no evaluations counted")
	}
}

func TestSearchDeterministic(t *testing.T) {
	b := prog.Build("needle")
	opts := DefaultOptions()
	opts.Generations = 6
	opts.PopSize = 6
	opts.TrialsPerRep = 4
	opts.FinalTrials = 60
	r1, err := Search(b, opts, xrand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Search(b, opts, xrand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestFitness != r2.BestFitness || r1.Final.SDC != r2.Final.SDC {
		t.Fatalf("search not reproducible: %v/%d vs %v/%d",
			r1.BestFitness, r1.Final.SDC, r2.BestFitness, r2.Final.SDC)
	}
	for i := range r1.BestInput {
		if r1.BestInput[i] != r2.BestInput[i] {
			t.Fatal("best inputs differ")
		}
	}
}

func TestSearchImprovesOverSmallInput(t *testing.T) {
	// The search must not end below the fitness of its own seeds.
	b := prog.Build("xsbench")
	opts := DefaultOptions()
	opts.Generations = 10
	opts.PopSize = 8
	opts.TrialsPerRep = 5
	opts.FinalTrials = 100
	res, err := Search(b, opts, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	seedFitness, _ := Fitness(b, res.Distribution.Scores, res.SmallInput.Input)
	if res.BestFitness < seedFitness {
		t.Fatalf("best fitness %v below seed fitness %v", res.BestFitness, seedFitness)
	}
}

func TestRandomSearchBudget(t *testing.T) {
	b := prog.Build("pathfinder")
	rng := xrand.New(9)
	res := RandomSearch(b, BaselineOptions{TrialsPerInput: 50, DynBudget: 20_000_000}, rng)
	if res.Inputs == 0 {
		t.Fatal("baseline evaluated no inputs")
	}
	if res.DynSpent < 20_000_000 {
		t.Fatalf("stopped below budget: %d", res.DynSpent)
	}
	// It must stop soon after the budget (within one input's cost).
	if res.DynSpent > 40_000_000 {
		t.Fatalf("overshot budget grossly: %d", res.DynSpent)
	}
	if res.BestSDC < 0 || res.BestSDC > 1 {
		t.Fatalf("best SDC %v", res.BestSDC)
	}
	// History best must be monotone.
	prev := -1.0
	for _, p := range res.History {
		if p.BestSDC < prev {
			t.Fatal("baseline best regressed")
		}
		prev = p.BestSDC
	}
}

func TestRandomSearchMaxInputs(t *testing.T) {
	b := prog.Build("fft")
	res := RandomSearch(b, BaselineOptions{TrialsPerInput: 20, MaxInputs: 5}, xrand.New(2))
	if res.Inputs != 5 {
		t.Fatalf("inputs = %d, want 5", res.Inputs)
	}
}

func TestRandomSearchBoundsRejections(t *testing.T) {
	// An always-invalid benchmark: with a 1-instruction dynamic budget every
	// golden run is over budget, so every candidate is rejected. Rejected
	// candidates advance neither DynSpent nor Inputs, so without the
	// consecutive-rejection bound this search would spin forever against its
	// DynBudget stop.
	b := prog.Build("pathfinder")
	b.MaxDyn = 1
	res := RandomSearch(b, BaselineOptions{TrialsPerInput: 10, DynBudget: 1 << 40, MaxConsecutiveRejects: 25}, xrand.New(4))
	if res.Inputs != 0 {
		t.Fatalf("inputs = %d, want 0 (all candidates invalid)", res.Inputs)
	}
	if res.Rejected != 25 {
		t.Fatalf("rejected = %d, want 25 (the consecutive bound)", res.Rejected)
	}
	if res.BestSDC != 0 {
		t.Fatalf("best SDC = %v, want 0", res.BestSDC)
	}
	// The default bound also terminates (quickly enough to test).
	b2 := prog.Build("pathfinder")
	b2.MaxDyn = 1
	res = RandomSearch(b2, BaselineOptions{TrialsPerInput: 10, DynBudget: 1 << 40}, xrand.New(4))
	if res.Rejected != DefaultMaxConsecutiveRejects {
		t.Fatalf("rejected = %d, want default bound %d", res.Rejected, DefaultMaxConsecutiveRejects)
	}
}

func TestRandomSearchAdaptive(t *testing.T) {
	// CITarget switches per-candidate campaigns to the adaptive stratified
	// runner: candidate SDC rates are composed estimates in [0,1], trials
	// never exceed the flat campaign size, and the search stays deterministic.
	b := prog.Build("pathfinder")
	opts := BaselineOptions{TrialsPerInput: 200, MaxInputs: 3, FIOptions: FIOptions{CITarget: 0.05, Workers: 4}}
	res := RandomSearch(b, opts, xrand.New(7))
	if res.Inputs != 3 {
		t.Fatalf("inputs = %d, want 3", res.Inputs)
	}
	for _, pt := range res.History {
		if pt.SDC < 0 || pt.SDC > 1 {
			t.Fatalf("candidate SDC %v outside [0,1]", pt.SDC)
		}
	}
	if res.Best.Trials > 200 {
		t.Fatalf("adaptive candidate spent %d trials, cap 200", res.Best.Trials)
	}
	again := RandomSearch(b, opts, xrand.New(7))
	if res.BestSDC != again.BestSDC || res.Inputs != again.Inputs {
		t.Fatalf("adaptive baseline is not deterministic: %v/%d vs %v/%d",
			res.BestSDC, res.Inputs, again.BestSDC, again.Inputs)
	}
}

func TestSearchAdaptiveFinal(t *testing.T) {
	// CITarget > 0 routes the closing campaign through the adaptive runner:
	// the result carries the composed estimate with honest bounds, and the
	// reported bound is the estimate, not the allocation-biased pooled ratio.
	b := prog.Build("xsbench")
	opts := DefaultOptions()
	opts.Generations = 3
	opts.PopSize = 6
	opts.TrialsPerRep = 5
	opts.FinalTrials = 400
	opts.CITarget = 0.06
	opts.Workers = 4
	res, err := Search(b, opts, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAdaptive == nil {
		t.Fatal("adaptive search did not record FinalAdaptive")
	}
	if res.FinalAdaptive.Counts.Trials > 400 {
		t.Fatalf("adaptive final spent %d trials, cap 400", res.FinalAdaptive.Counts.Trials)
	}
	if res.SDCBound() != res.FinalAdaptive.Estimate {
		t.Fatalf("SDCBound %v != composed estimate %v", res.SDCBound(), res.FinalAdaptive.Estimate)
	}
	lo, hi := res.SDCInterval()
	if lo > res.SDCBound() || hi < res.SDCBound() || lo < 0 || hi > 1 {
		t.Fatalf("interval [%v,%v] does not bracket bound %v", lo, hi, res.SDCBound())
	}
}

func TestAdaptiveFaultModelThreading(t *testing.T) {
	// A non-default model must reach the adaptive closing campaign and each
	// adaptive baseline candidate: the search accepts it, and the baseline's
	// candidate estimates move off the default model's.
	b := prog.Build("pathfinder")
	opts := DefaultOptions()
	opts.Generations = 2
	opts.PopSize = 4
	opts.TrialsPerRep = 3
	opts.FinalTrials = 200
	opts.CITarget = 0.06
	opts.Model = fault.BurstFlip
	res, err := Search(b, opts, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAdaptive == nil {
		t.Fatal("adaptive search under the burst model did not record FinalAdaptive")
	}
	bopts := BaselineOptions{TrialsPerInput: 200, MaxInputs: 3, FIOptions: FIOptions{CITarget: 0.06}}
	flip := RandomSearch(b, bopts, xrand.New(7))
	bopts.Model = fault.BurstFlip
	burst := RandomSearch(b, bopts, xrand.New(7))
	if reflect.DeepEqual(flip.History, burst.History) {
		t.Fatal("adaptive baseline candidates ignored the burst fault model")
	}
}

func TestEvaluateInputCostGap(t *testing.T) {
	// Table 6's claim: per-input evaluation is orders of magnitude cheaper
	// in PEPPA-X (one run) than the baseline (a full FI campaign).
	b := prog.Build("needle")
	peppaDyn, baseDyn, _, _, err := EvaluateInputCost(b, b.RefInput(), 200, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if baseDyn < peppaDyn*100 {
		t.Fatalf("cost gap too small: peppa %d vs baseline %d", peppaDyn, baseDyn)
	}
}

func TestSearchWithoutHeuristicsCostsMore(t *testing.T) {
	b := prog.Build("pathfinder")
	with := DefaultOptions()
	with.Generations = 3
	with.PopSize = 4
	with.TrialsPerRep = 4
	with.FinalTrials = 50
	without := with
	without.DisablePruning = true
	without.UseSmallInput = false

	rw, err := Search(b, with, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rwo, err := Search(b, without, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if rwo.Cost.SensitivityDyn <= rw.Cost.SensitivityDyn {
		t.Fatalf("heuristics should cut sensitivity cost: with %d, without %d",
			rw.Cost.SensitivityDyn, rwo.Cost.SensitivityDyn)
	}
}

func TestCheckpointCountsValid(t *testing.T) {
	b := prog.Build("fft")
	opts := DefaultOptions()
	opts.Generations = 5
	opts.PopSize = 6
	opts.TrialsPerRep = 4
	opts.FinalTrials = 80
	opts.Checkpoints = []int{2, 5}
	res, err := Search(b, opts, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range res.Checkpoints {
		if cp.Counts.Trials != 80 {
			t.Fatalf("checkpoint gen %d has %d trials", cp.Generation, cp.Counts.Trials)
		}
	}
}

func TestGoldenReusableAcrossCampaigns(t *testing.T) {
	// Regression guard: goldens must be immutable under campaigns.
	b := prog.Build("pathfinder")
	g, err := campaign.NewGolden(b.Prog, b.Encode(b.RefInput()), b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	before := g.DynCount
	campaign.OverallParallel(b.Prog, g, 50, campaign.ParallelOptions{Seed: 1})
	if g.DynCount != before {
		t.Fatal("campaign mutated golden")
	}
}

func TestSearchOnCustomProgram(t *testing.T) {
	// End-to-end: the pipeline must accept programs loaded from textual IR
	// (the -file pathway), not just built-in benchmarks.
	src, err := os.ReadFile("../../examples/custom/dotprod.ir")
	if err != nil {
		t.Skipf("example IR not present: %v", err)
	}
	b, err := prog.LoadCustom(string(src),
		"n:int:8:256:32,seed:int:1:100000:7,scale:float:0.1:10:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Generations = 8
	opts.PopSize = 6
	opts.TrialsPerRep = 4
	opts.FinalTrials = 100
	res, err := Search(b, opts, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Trials != 100 || len(res.BestInput) != 3 {
		t.Fatalf("custom search result: %+v", res.Final)
	}
}

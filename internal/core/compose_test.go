package core

import (
	"slices"
	"testing"

	"repro/internal/compose"
	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// TestSearchCompose runs the full pipeline in compositional mode: the
// sensitivity derivation and every checkpoint campaign must come from
// composed profiles, the cache must actually be reused across
// checkpoints, and the whole search must stay deterministic and
// worker-invariant.
func TestSearchCompose(t *testing.T) {
	b := prog.Build("pathfinder")
	opts := DefaultOptions()
	opts.Generations = 8
	opts.PopSize = 6
	opts.TrialsPerRep = 6
	opts.FinalTrials = 120
	opts.Checkpoints = []int{4, 8}
	opts.Compose = true
	opts.ComposeTrials = 400

	res, err := Search(b, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.ComposeStats == nil {
		t.Fatal("ComposeStats not recorded")
	}
	if res.ComposeStats.Composed == 0 || res.ComposeStats.Misses == 0 {
		t.Fatalf("compose stats show no activity: %+v", res.ComposeStats)
	}
	// Sensitivity derivation plus two checkpoints estimate at least three
	// inputs against the same profile set; something must have been reused.
	if res.ComposeStats.Hits == 0 {
		t.Fatalf("no profile reuse across pipeline stages: %+v", res.ComposeStats)
	}
	if res.Distribution.Composed == nil {
		t.Fatal("distribution lacks the composed estimate")
	}
	if got, want := res.ComposeStats.Composed, int64(1+len(res.Checkpoints)); got != want {
		t.Fatalf("%d composed estimates, want %d: checkpoints not composed", got, want)
	}
	for i, cp := range res.Checkpoints {
		if cp.P < cp.Lo || cp.P > cp.Hi {
			t.Fatalf("checkpoint %d interval [%v,%v] does not bracket %v", i, cp.Lo, cp.Hi, cp.P)
		}
	}

	// Determinism and worker invariance: same seed, different Workers.
	opts.Workers = 4
	res4, err := Search(b, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res4.BestFitness != res.BestFitness {
		t.Fatalf("best fitness differs across workers: %v vs %v", res4.BestFitness, res.BestFitness)
	}
	for i := range res.Checkpoints {
		if res4.Checkpoints[i].Estimate != res.Checkpoints[i].Estimate {
			t.Fatalf("checkpoint %d composed estimate differs across workers", i)
		}
	}
}

// TestRandomSearchCompose pins the baseline's compositional path: candidate
// evaluations reuse cached profiles (hits accumulate across candidates),
// the budget charges only triggered measurement, and the search stays
// deterministic and worker-invariant.
func TestRandomSearchCompose(t *testing.T) {
	b := prog.Build("needle")
	// Uniform-random candidates are far apart, so any honest drift
	// threshold re-measures most profiles; disabling re-measurement pins
	// the pure-reuse accounting path the GA's close neighbors hit.
	opts := BaselineOptions{
		MaxInputs: 5,
		FIOptions: FIOptions{Compose: true, ComposeTrials: 400, ComposeThreshold: -1},
	}
	res := RandomSearch(b, opts, xrand.New(21))
	if res.Inputs != 5 {
		t.Fatalf("evaluated %d inputs", res.Inputs)
	}
	if res.ComposeStats == nil {
		t.Fatal("ComposeStats not recorded")
	}
	if res.ComposeStats.Composed != 5 {
		t.Fatalf("composed %d estimates, want 5", res.ComposeStats.Composed)
	}
	if res.ComposeStats.Hits == 0 {
		t.Fatalf("no profile reuse across candidates: %+v", res.ComposeStats)
	}
	if res.Best.Trials == 0 || res.Best.P < res.Best.Lo || res.Best.P > res.Best.Hi {
		t.Fatalf("best composed estimate not recorded: %+v", res.Best)
	}
	// The incremental claim: five candidates must cost less FI measurement
	// than five independent full passes would.
	fullPass := int(res.ComposeStats.MeasureTrials)
	if res.ComposeStats.Misses > 0 && fullPass >= 5*opts.ComposeTrials {
		t.Fatalf("no incremental savings: %d trials for 5 candidates", fullPass)
	}

	opts.Workers = 4
	res4 := RandomSearch(b, opts, xrand.New(21))
	if res4.Best != res.Best || res4.DynSpent != res.DynSpent {
		t.Fatalf("compose baseline differs across workers: best %+v vs %+v, dyn %d vs %d",
			res4.Best, res.Best, res4.DynSpent, res.DynSpent)
	}
}

// TestSearchComposeCheckpointModel: compositional checkpoints measure under
// the campaign fault model, on their own estimator, while the sensitivity
// derivation and the GA stay single-flip. So a burst-flip search reaches
// the same checkpoint inputs as a single-flip one but measures them on
// burst profiles, and ComposeStats counts both estimators' work.
func TestSearchComposeCheckpointModel(t *testing.T) {
	b := prog.Build("needle")
	opts := DefaultOptions()
	opts.Generations = 4
	opts.PopSize = 6
	opts.TrialsPerRep = 4
	opts.FinalTrials = 100
	opts.Checkpoints = []int{2, 4}
	opts.Compose = true
	flip, err := Search(b, opts, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	opts.Model = fault.BurstFlip
	burst, err := Search(b, opts, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(burst.Distribution.Scores, flip.Distribution.Scores) {
		t.Fatal("the fault model moved the single-flip sensitivity derivation")
	}
	for i, cp := range burst.Checkpoints {
		if !slices.Equal(cp.BestInput, flip.Checkpoints[i].BestInput) {
			t.Fatalf("checkpoint %d input moved: %v vs %v", i, cp.BestInput, flip.Checkpoints[i].BestInput)
		}
		if cp.Counts == flip.Checkpoints[i].Counts {
			t.Fatalf("checkpoint %d measured single flips under -fault-model burst: %+v", i, cp.Estimate)
		}
	}
	if got, want := burst.ComposeStats.Composed, int64(1+len(burst.Checkpoints)); got != want {
		t.Fatalf("%d composed estimates, want %d", got, want)
	}
	if burst.ComposeStats.Misses <= flip.ComposeStats.Misses {
		t.Fatalf("burst checkpoints measured no profiles of their own: %+v vs %+v",
			burst.ComposeStats, flip.ComposeStats)
	}
}

// TestRandomSearchComposeSharedCache shares one cache between a search and
// a subsequent baseline on the same program: the baseline's first
// candidate must hit profiles the search already measured.
func TestRandomSearchComposeSharedCache(t *testing.T) {
	b := prog.Build("pathfinder")
	cache := compose.NewCache(0)
	sopts := DefaultOptions()
	sopts.Generations = 4
	sopts.PopSize = 4
	sopts.TrialsPerRep = 4
	sopts.FinalTrials = 60
	sopts.Compose = true
	sopts.ComposeTrials = 300
	sopts.ComposeCache = cache
	if _, err := Search(b, sopts, xrand.New(3)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("search left the shared cache empty")
	}

	bopts := BaselineOptions{
		MaxInputs:    3,
		ComposeCache: cache,
		FIOptions:    FIOptions{Compose: true, ComposeTrials: 300},
	}
	res := RandomSearch(b, bopts, xrand.New(5))
	if res.ComposeStats.Misses != 0 && res.ComposeStats.Hits == 0 {
		t.Fatalf("baseline did not reuse the search's profiles: %+v", res.ComposeStats)
	}
}

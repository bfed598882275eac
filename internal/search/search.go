// Package search provides interchangeable search strategies over bounded
// numeric input vectors. The paper notes (§4.1) that PEPPA-X "does not tie
// to GA; other search-based optimization algorithms can be adopted" — this
// package makes that concrete: the genetic engine, hill climbing with the
// paper's ±10 % move operator, simulated annealing, uniform random
// sampling, and rare-branch-guided fuzzing (internal/fuzz) all implement
// one Strategy interface and can drive the SDC-bound input search (see the
// strategies experiment).
package search

import (
	"fmt"
	"math"

	"repro/internal/fuzz"
	"repro/internal/ga"
	"repro/internal/xrand"
)

// Objective is a maximization problem over clamped real vectors.
type Objective struct {
	// Dim is the vector length.
	Dim int
	// Clamp forces a candidate back into the valid space (in place).
	Clamp func([]float64)
	// Eval scores a candidate; higher is better, non-negative.
	Eval func([]float64) float64
	// Probe, when non-nil, scores a candidate like Eval and additionally
	// returns the profiled run's block/edge hit counters (nil when the run
	// failed). The rare-branch Fuzz strategy requires it; the other
	// strategies ignore it.
	Probe func([]float64) (float64, []int64)
	// Seeds provide starting points (at least one required).
	Seeds [][]float64
}

func (o Objective) validate() error {
	if o.Dim <= 0 || o.Clamp == nil || o.Eval == nil || len(o.Seeds) == 0 {
		return fmt.Errorf("search: objective requires Dim, Clamp, Eval and Seeds")
	}
	return nil
}

// Result is a strategy's outcome.
type Result struct {
	Best        []float64
	BestScore   float64
	Evaluations int
	// History records the best-so-far score after each evaluation.
	History []float64
}

// Strategy is a budgeted maximizer.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Run spends up to budget evaluations maximizing the objective.
	Run(obj Objective, budget int, rng *xrand.RNG) (*Result, error)
}

// mutate applies the paper's move operator: perturb one coordinate by a
// uniform value within ±10 % of its magnitude (with a small absolute kick
// at zero).
func mutate(g []float64, rng *xrand.RNG) {
	i := rng.Intn(len(g))
	span := math.Abs(g[i]) * 0.10
	if span == 0 {
		span = 0.10
	}
	g[i] += rng.Range(-span, span)
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }

// tracker accumulates Result bookkeeping.
type tracker struct {
	obj Objective
	res *Result
	cap int
}

func newTracker(obj Objective, budget int) *tracker {
	return &tracker{obj: obj, res: &Result{}, cap: budget}
}

// eval scores a candidate, updating the best and history; it returns false
// once the budget is exhausted.
func (t *tracker) eval(v []float64) (float64, bool) {
	if t.res.Evaluations >= t.cap {
		return 0, false
	}
	t.obj.Clamp(v)
	s := t.obj.Eval(v)
	t.res.Evaluations++
	if t.res.Best == nil || s > t.res.BestScore {
		t.res.Best = cloneVec(v)
		t.res.BestScore = s
	}
	t.res.History = append(t.res.History, t.res.BestScore)
	return s, true
}

// Random is uniform sampling around the seeds' space: each candidate is an
// independently mutated copy of a random seed, matching the other
// strategies' reachable neighbourhood. It is the "cheap-fitness baseline"
// of the GA-vs-random ablation.
type Random struct {
	// Wide, when set, ignores seeds and asks the objective for fresh
	// uniform candidates via Sampler.
	Sampler func(rng *xrand.RNG) []float64
}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Run implements Strategy.
func (r Random) Run(obj Objective, budget int, rng *xrand.RNG) (*Result, error) {
	if err := obj.validate(); err != nil {
		return nil, err
	}
	t := newTracker(obj, budget)
	for {
		var cand []float64
		if r.Sampler != nil {
			cand = r.Sampler(rng)
		} else {
			cand = cloneVec(obj.Seeds[rng.Intn(len(obj.Seeds))])
			mutate(cand, rng)
		}
		if _, ok := t.eval(cand); !ok {
			break
		}
	}
	return t.res, nil
}

// HillClimb is first-improvement hill climbing with random restarts: from a
// seed, repeatedly try mutated neighbours, moving on improvement; after
// StallLimit consecutive non-improvements, restart from a random seed.
type HillClimb struct {
	// StallLimit is the restart threshold (default 20).
	StallLimit int
}

// Name implements Strategy.
func (HillClimb) Name() string { return "hillclimb" }

// Run implements Strategy.
func (h HillClimb) Run(obj Objective, budget int, rng *xrand.RNG) (*Result, error) {
	if err := obj.validate(); err != nil {
		return nil, err
	}
	stall := h.StallLimit
	if stall <= 0 {
		stall = 20
	}
	t := newTracker(obj, budget)
	cur := cloneVec(obj.Seeds[0])
	curScore, ok := t.eval(cloneVec(cur))
	stalled := 0
	for ok {
		cand := cloneVec(cur)
		mutate(cand, rng)
		var s float64
		s, ok = t.eval(cand)
		if !ok {
			break
		}
		if s > curScore {
			cur, curScore = cand, s
			stalled = 0
		} else {
			stalled++
			if stalled >= stall {
				cur = cloneVec(obj.Seeds[rng.Intn(len(obj.Seeds))])
				mutate(cur, rng)
				curScore, ok = t.eval(cloneVec(cur))
				stalled = 0
			}
		}
	}
	return t.res, nil
}

// Anneal is simulated annealing with a geometric cooling schedule over the
// same move operator; worse moves are accepted with probability
// exp(Δ/T).
type Anneal struct {
	// T0 is the initial temperature as a fraction of the first seed's
	// score (default 0.5); Cooling the per-evaluation decay (default
	// 0.995).
	T0      float64
	Cooling float64
}

// Name implements Strategy.
func (Anneal) Name() string { return "anneal" }

// Run implements Strategy.
func (a Anneal) Run(obj Objective, budget int, rng *xrand.RNG) (*Result, error) {
	if err := obj.validate(); err != nil {
		return nil, err
	}
	t0, cooling := a.T0, a.Cooling
	if t0 <= 0 {
		t0 = 0.5
	}
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.995
	}
	t := newTracker(obj, budget)
	cur := cloneVec(obj.Seeds[0])
	curScore, ok := t.eval(cloneVec(cur))
	temp := t0 * (curScore + 1e-9)
	for ok {
		cand := cloneVec(cur)
		mutate(cand, rng)
		var s float64
		s, ok = t.eval(cand)
		if !ok {
			break
		}
		if s >= curScore || rng.Float64() < math.Exp((s-curScore)/math.Max(temp, 1e-12)) {
			cur, curScore = cand, s
		}
		temp *= cooling
	}
	return t.res, nil
}

// Genetic adapts the internal/ga engine to the Strategy interface, at the
// paper's §4.2.4 mutation and crossover rates.
type Genetic struct {
	PopSize int
}

// Name implements Strategy.
func (Genetic) Name() string { return "genetic" }

// Run implements Strategy.
func (g Genetic) Run(obj Objective, budget int, rng *xrand.RNG) (*Result, error) {
	if err := obj.validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	seeds := make([]ga.Genome, len(obj.Seeds))
	for i, s := range obj.Seeds {
		seeds[i] = ga.Genome(cloneVec(s))
	}
	engine, err := ga.New(ga.Config{
		PopSize: g.PopSize,
		Clamp:   func(gg ga.Genome) { obj.Clamp(gg) },
		Fitness: func(gg ga.Genome) float64 {
			s := obj.Eval(gg)
			res.Evaluations++
			if res.Best == nil || s > res.BestScore {
				res.Best = cloneVec(gg)
				res.BestScore = s
			}
			res.History = append(res.History, res.BestScore)
			return s
		},
		Seed: seeds,
	}, rng)
	if err != nil {
		return nil, err
	}
	for res.Evaluations < budget {
		engine.Step()
	}
	return res, nil
}

// Fuzz is the rare-branch-guided strategy (internal/fuzz): corpus seeds are
// selected by the rarest covered block/edge counter and mutated under
// FairFuzz-style masks that freeze positions whose mutation loses that
// edge. It needs coverage feedback per candidate, so the objective must
// supply Probe.
type Fuzz struct{}

// Name implements Strategy.
func (Fuzz) Name() string { return "fuzz" }

// Run implements Strategy.
func (Fuzz) Run(obj Objective, budget int, rng *xrand.RNG) (*Result, error) {
	if err := obj.validate(); err != nil {
		return nil, err
	}
	if obj.Probe == nil {
		return nil, fmt.Errorf("search: the fuzz strategy requires Objective.Probe")
	}
	fr, err := fuzz.Run(fuzz.Options{
		Dim:   obj.Dim,
		Clamp: obj.Clamp,
		Seeds: obj.Seeds,
		// The default ±10 % single-coordinate move keeps the neighbourhood
		// identical to the other strategies' mutate.
		Budget: budget,
	}, func(v []float64) (float64, []int64, bool) {
		s, counters := obj.Probe(v)
		return s, counters, counters != nil
	}, rng)
	if err != nil {
		return nil, err
	}
	return &Result{
		Best:        fr.Best,
		BestScore:   fr.BestScore,
		Evaluations: fr.Executions,
		History:     fr.History,
	}, nil
}

// All returns the standard strategy set with paper-default parameters.
func All() []Strategy {
	return []Strategy{
		Genetic{},
		HillClimb{},
		Anneal{},
		Random{},
		Fuzz{},
	}
}

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/sensitivity"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// This file holds the ablation studies DESIGN.md calls out: they probe the
// design choices the paper asserts but does not isolate — the pruning
// boundary classes, the SDC-score fitness (vs plain code coverage, tying to
// Table 2's negative result), GA search (vs random sampling with the same
// cheap fitness), and the 30-trial sensitivity budget.

// AblationPruningResult compares boundary-aware pruning with pure dataflow
// grouping: how much coarser the groups get and how much ranking quality
// the coarse version loses against a direct per-instruction measurement.
type AblationPruningResult struct {
	Bench            string
	Reps             int
	RepsNoBoundaries int
	// RhoWith / RhoWithout: Spearman correlation of each variant's derived
	// scores against a direct (unpruned) measurement on the same input.
	RhoWith    float64
	RhoWithout float64
}

// AblationPruningBoundaries quantifies what the boundary classes buy.
func AblationPruningBoundaries(s *Suite, bench string) (*AblationPruningResult, error) {
	b := s.Bench(bench)
	rng := s.rng("abl-prune", bench)
	small, err := core.FindSmallFIInput(b, rng)
	if err != nil {
		return nil, err
	}
	res := &AblationPruningResult{Bench: bench}
	res.Reps = analysis.Prune(b.Module).NumRepresentatives()
	res.RepsNoBoundaries = analysis.PruneNoBoundaries(b.Module).NumRepresentatives()

	// Direct reference measurement.
	ids := campaign.AllInstructionIDs(b.Prog)
	direct := campaign.PerInstructionVector(b.Prog.NumInstrs(),
		campaign.PerInstructionParallel(b.Prog, small.Golden, ids, s.Cfg.PerInstrTrials, oneWorker(rng)))

	withB := sensitivity.DeriveGroups(b.Prog, small.Golden, analysis.Prune(b.Module).Groups, s.Cfg.TrialsPerRep, rng)
	withoutB := sensitivity.DeriveGroups(b.Prog, small.Golden, analysis.PruneNoBoundaries(b.Module).Groups, s.Cfg.TrialsPerRep, rng)
	if res.RhoWith, err = stats.Spearman(withB.RawProb, direct); err != nil {
		return nil, err
	}
	if res.RhoWithout, err = stats.Spearman(withoutB.RawProb, direct); err != nil {
		return nil, err
	}
	return res, nil
}

// Render summarizes the pruning ablation.
func (r *AblationPruningResult) Render() string {
	return fmt.Sprintf(
		"Ablation (pruning boundaries) on %s: %d representatives with boundary splitting vs %d without;\n"+
			"score-vs-direct rank correlation %.2f with boundaries vs %.2f without.\n",
		r.Bench, r.Reps, r.RepsNoBoundaries, r.RhoWith, r.RhoWithout)
}

// AblationFitnessResult compares final FI-measured SDC bounds when the GA
// is driven by different fitness functions under the same budget.
type AblationFitnessResult struct {
	Bench string
	// ScoreFitnessSDC uses the paper's Σ Pᵢ·Nᵢ/N_total.
	ScoreFitnessSDC float64
	// CoverageFitnessSDC uses plain static-instruction coverage (the
	// software-testing metric Table 2 shows is uncorrelated with SDC).
	CoverageFitnessSDC float64
	// RandomSamplingSDC draws the same number of candidates uniformly and
	// keeps the best by score fitness (GA vs random ablation).
	RandomSamplingSDC float64
	Candidates        int
}

// AblationFitness runs the three searches with matched candidate budgets
// and FI-measures each reported input.
func AblationFitness(s *Suite, bench string) (*AblationFitnessResult, error) {
	b := s.Bench(bench)
	rng := s.rng("abl-fit", bench)
	small, err := core.FindSmallFIInput(b, rng)
	if err != nil {
		return nil, err
	}
	dist := sensitivity.Derive(b.Prog, small.Golden, sensitivity.Options{
		TrialsPerRep: s.Cfg.TrialsPerRep, UsePruning: true,
	}, rng)

	gens, pop := s.Cfg.SearchGenerations/2+1, s.Cfg.SearchPop
	seeds := []ga.Genome{ga.Genome(small.Input), ga.Genome(b.RefInput())}
	for i := 0; i < 4; i++ {
		seeds = append(seeds, ga.Genome(b.RandomInput(rng)))
	}

	runGA := func(fitness func(ga.Genome) float64, seed uint64) ([]float64, int, error) {
		e, err := ga.New(ga.Config{
			PopSize: pop,
			Clamp:   func(g ga.Genome) { b.ClampInput(g) },
			Fitness: fitness,
			Seed:    seeds,
		}, xrand.New(seed))
		if err != nil {
			return nil, 0, err
		}
		best := e.Run(gens)
		return best.Genome, e.Evaluations, nil
	}

	fe := core.NewFitnessEval(b, dist.Scores)
	scoreFit := func(g ga.Genome) float64 {
		f, _ := fe.Eval(g)
		return f
	}
	covFit := func(g ga.Genome) float64 {
		gold, err := campaign.NewGolden(b.Prog, b.Encode(g), b.MaxDyn)
		if err != nil {
			return 0
		}
		return gold.Coverage()
	}

	scoreBest, candidates, err := runGA(scoreFit, 101)
	if err != nil {
		return nil, err
	}
	covBest, _, err := runGA(covFit, 101)
	if err != nil {
		return nil, err
	}

	// Random sampling with the same candidate budget and the same cheap
	// score fitness.
	bestRandom := b.RandomInput(rng)
	bestRandomFit := -1.0
	for i := 0; i < candidates; i++ {
		cand := b.RandomInput(rng)
		if f := scoreFit(cand); f > bestRandomFit {
			bestRandomFit = f
			bestRandom = cand
		}
	}

	measure := func(in []float64) float64 {
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			return 0
		}
		return campaign.OverallParallel(b.Prog, g, s.Cfg.OverallTrials, oneWorker(rng)).SDCProbability()
	}
	return &AblationFitnessResult{
		Bench:              bench,
		ScoreFitnessSDC:    measure(scoreBest),
		CoverageFitnessSDC: measure(covBest),
		RandomSamplingSDC:  measure(bestRandom),
		Candidates:         candidates,
	}, nil
}

// Render summarizes the fitness ablation.
func (r *AblationFitnessResult) Render() string {
	return fmt.Sprintf(
		"Ablation (fitness) on %s over %d candidates: SDC bound %.2f%% with score fitness,\n"+
			"%.2f%% with coverage fitness, %.2f%% with random sampling + score fitness.\n",
		r.Bench, r.Candidates, r.ScoreFitnessSDC*100, r.CoverageFitnessSDC*100, r.RandomSamplingSDC*100)
}

// AblationTrialsResult compares sensitivity distributions derived with two
// per-representative trial budgets.
type AblationTrialsResult struct {
	Bench            string
	TrialsA, TrialsB int
	// Rho is the Spearman correlation between the two derived score
	// vectors; CostRatio the FI-cost ratio B/A.
	Rho       float64
	CostRatio float64
}

// AblationSensitivityTrials measures how much ranking the 30-trial budget
// loses against a heavier one.
func AblationSensitivityTrials(s *Suite, bench string, trialsA, trialsB int) (*AblationTrialsResult, error) {
	b := s.Bench(bench)
	rng := s.rng("abl-trials", bench)
	small, err := core.FindSmallFIInput(b, rng)
	if err != nil {
		return nil, err
	}
	da := sensitivity.Derive(b.Prog, small.Golden, sensitivity.Options{TrialsPerRep: trialsA, UsePruning: true}, rng)
	db := sensitivity.Derive(b.Prog, small.Golden, sensitivity.Options{TrialsPerRep: trialsB, UsePruning: true}, rng)
	rho, err := stats.Spearman(da.RawProb, db.RawProb)
	if err != nil {
		return nil, err
	}
	ratio := 0.0
	if da.FIDynInstrs > 0 {
		ratio = float64(db.FIDynInstrs) / float64(da.FIDynInstrs)
	}
	return &AblationTrialsResult{
		Bench: bench, TrialsA: trialsA, TrialsB: trialsB, Rho: rho, CostRatio: ratio,
	}, nil
}

// Render summarizes the trial-budget ablation.
func (r *AblationTrialsResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation (sensitivity trials) on %s: scores from %d vs %d trials per representative\n",
		r.Bench, r.TrialsA, r.TrialsB)
	fmt.Fprintf(&sb, "rank-correlate at rho %.2f while the heavier budget costs %.1fx more.\n", r.Rho, r.CostRatio)
	return sb.String()
}

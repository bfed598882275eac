package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/sensitivity"
)

// StrategyRow is one (benchmark, strategy) measurement.
type StrategyRow struct {
	Bench    string
	Strategy string
	// Fitness is the best fitness found; SDC the FI-measured probability
	// of the corresponding input.
	Fitness float64
	SDC     float64
	Evals   int
}

// StrategiesResult is the "technique does not tie to GA" experiment (§4.1):
// the same PEPPA-X pipeline driven by different search strategies under an
// equal evaluation budget.
type StrategiesResult struct {
	Budget int
	Rows   []StrategyRow
}

// Strategies runs every strategy on every configured benchmark.
func Strategies(s *Suite) (*StrategiesResult, error) {
	budget := s.Cfg.SearchGenerations * s.Cfg.SearchPop
	res := &StrategiesResult{Budget: budget}
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		rng := s.rng("strategies", name)
		small, err := core.FindSmallFIInput(b, rng)
		if err != nil {
			return nil, err
		}
		dist := sensitivity.Derive(b.Prog, small.Golden, sensitivity.Options{
			TrialsPerRep: s.Cfg.TrialsPerRep, UsePruning: true,
		}, rng)

		seeds := [][]float64{small.Input, b.RefInput()}
		for i := 0; i < 6; i++ {
			seeds = append(seeds, b.RandomInput(rng))
		}
		fe := core.NewFitnessEval(b, dist.Scores)
		var probeBuf []int64
		obj := search.Objective{
			Dim:   len(b.Args),
			Clamp: func(v []float64) { b.ClampInput(v) },
			Eval: func(v []float64) float64 {
				f, _ := fe.Eval(v)
				return f
			},
			// Coverage feedback for the rare-branch fuzz strategy; the
			// strategies run serially, so one counter buffer suffices.
			Probe: func(v []float64) (float64, []int64) {
				f, counters, _ := fe.EvalProbe(v, probeBuf)
				if counters != nil {
					probeBuf = counters
				}
				return f, counters
			},
			Seeds: seeds,
		}

		for _, strat := range s.strategies() {
			sr, err := strat.Run(obj, budget, s.rng("strategies/"+strat.Name(), name))
			if err != nil {
				return nil, err
			}
			sdc := 0.0
			if g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(sr.Best), b.MaxDyn, campaign.CheckpointAuto); err == nil {
				sdc = campaign.OverallParallel(b.Prog, g, s.Cfg.OverallTrials, oneWorker(rng)).SDCProbability()
			}
			res.Rows = append(res.Rows, StrategyRow{
				Bench: name, Strategy: strat.Name(),
				Fitness: sr.BestScore, SDC: sdc, Evals: sr.Evaluations,
			})
		}
	}
	return res, nil
}

// Render formats the comparison.
func (r *StrategiesResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench, row.Strategy, fmt.Sprintf("%.3f", row.Fitness),
			pct(row.SDC), fmt.Sprint(row.Evals),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Search strategies (extension): the PEPPA-X pipeline under different optimizers, %d evaluations each\n", r.Budget)
	sb.WriteString("§4.1: \"our technique does not tie to GA; other search-based optimization algorithms can be\n")
	sb.WriteString("adopted\". All iterative strategies should reach similar fitness and SDC bounds.\n\n")
	sb.WriteString(renderTable([]string{"Benchmark", "Strategy", "Fitness", "SDC bound", "Evals"}, rows))
	return sb.String()
}

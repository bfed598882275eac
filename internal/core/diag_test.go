package core

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/prog"
	"repro/internal/sensitivity"
	"repro/internal/xrand"
)

// TestDiagPathfinderFitness documents a limitation the reproduction shares
// with the paper's method: the fitness only sees footprint (Nᵢ) variation,
// so inputs that differ purely in data values (pathfinder's amp argument,
// which controls min-tie masking) are indistinguishable to the search even
// when their true SDC probabilities differ by 2-3x.
func TestDiagPathfinderFitness(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic, FI-heavy")
	}
	b := prog.Build("pathfinder")
	rng := xrand.New(777)
	small, _ := FindSmallFIInput(b, rng)
	t.Logf("small input: %v", small.Input)
	dist := sensitivity.Derive(b.Prog, small.Golden, sensitivity.Options{TrialsPerRep: 30, UsePruning: true}, rng)
	probes := [][]float64{
		{4, 4, 42, 3}, {5, 5, 45, 16}, {6, 6, 44, 15}, {4, 64, 7, 10}, {64, 4, 7, 10},
		{20, 20, 7, 10}, {30, 58, 900850, 493}, {64, 64, 7, 999}, {4, 4, 7, 2},
		{8, 8, 7, 600}, {4, 16, 7, 100}, {16, 4, 7, 100},
	}
	for _, in := range probes {
		f, _ := Fitness(b, dist.Scores, in)
		g, err := campaign.NewGolden(b.Prog, b.Encode(in), b.MaxDyn)
		if err != nil {
			t.Logf("%v invalid", in)
			continue
		}
		c := campaign.OverallParallel(b.Prog, g, 400, campaign.ParallelOptions{Seed: rng.Uint64()})
		t.Logf("input %-22v fitness %.3f  SDC %5.1f%%  dyn %d", in, f, c.SDCProbability()*100, g.DynCount)
	}
}

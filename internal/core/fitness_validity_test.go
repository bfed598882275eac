package core

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/prog"
	"repro/internal/sensitivity"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestFitnessCorrelatesWithSDC verifies the method's central validity claim
// (§4.2.5): the cheap fitness Σ Pᵢ·Nᵢ/N_total computed from the stationary
// SDC scores must rank inputs similarly to their true FI-measured SDC
// probability — otherwise the GA optimizes the wrong thing.
func TestFitnessCorrelatesWithSDC(t *testing.T) {
	if testing.Short() {
		t.Skip("FI-heavy")
	}
	for _, name := range []string{"needle", "pathfinder", "xsbench"} {
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			rng := xrand.New(777)
			small, err := FindSmallFIInput(b, 0.95, rng)
			if err != nil {
				t.Fatal(err)
			}
			dist := sensitivity.Derive(b.Prog, small.Golden, sensitivity.Options{
				TrialsPerRep: 30, UsePruning: true,
			}, rng)

			var fits, sdcs []float64
			for len(fits) < 18 {
				in := b.RandomInput(rng)
				g, err := campaign.NewGolden(b.Prog, b.Encode(in), b.MaxDyn)
				if err != nil {
					continue
				}
				f, _ := Fitness(b, dist.Scores, in)
				c := campaign.OverallParallel(b.Prog, g, 300, campaign.ParallelOptions{Seed: rng.Uint64()})
				fits = append(fits, f)
				sdcs = append(sdcs, c.SDCProbability())
			}
			rho, err := stats.Spearman(fits, sdcs)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: fitness-vs-SDC Spearman rho = %.3f", name, rho)
			if rho < 0.2 {
				t.Errorf("%s: fitness does not track SDC (rho %.3f)", name, rho)
			}
		})
	}
}

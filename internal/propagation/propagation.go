// Package propagation analyzes how injected faults travel through a
// program — the error-propagation characterization that §7.1.1 positions
// PEPPA-X's outputs for (modelling studies à la TraceR/Shoestring need
// large corpora of traced SDC events). It drives the interpreter's taint
// tracking over statistical FI campaigns and aggregates per-outcome
// propagation profiles.
package propagation

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/xrand"
)

// Trial is one traced fault injection.
type Trial struct {
	Outcome campaign.Outcome
	// InjectedID is the faulted static instruction.
	InjectedID int
	Stats      interp.PropagationStats
}

// Profile aggregates traced trials by outcome.
type Profile struct {
	Trials []Trial

	// MeanTaintedDyn maps each outcome to the mean count of corrupted
	// dynamic instructions — how far faults of that fate spread.
	MeanTaintedDyn map[campaign.Outcome]float64
	// OutputReached maps each outcome to the fraction of its trials whose
	// corruption reached a printed value or steered a branch.
	OutputReached map[campaign.Outcome]float64
}

// Analyze runs trials traced fault injections on the input described by
// golden and aggregates the propagation behaviour.
func Analyze(p *interp.Program, g *campaign.Golden, trials int, rng *xrand.RNG) (*Profile, error) {
	prof := &Profile{
		MeanTaintedDyn: make(map[campaign.Outcome]float64),
		OutputReached:  make(map[campaign.Outcome]float64),
	}
	sums := make(map[campaign.Outcome]float64)
	reached := make(map[campaign.Outcome]int)
	counts := make(map[campaign.Outcome]int)

	for i := 0; i < trials; i++ {
		plan := fault.SampleDynamic(rng, g.DynCount)
		r := interp.RunWithCheckpoints(p, g.Input, g.Checkpoints, interp.Options{
			Plan:             &plan,
			FaultRNG:         rng,
			MaxDyn:           g.TrialBudget(),
			TrackPropagation: true,
		})
		outcome := campaign.ClassifyResult(g, r, nil)
		t := Trial{Outcome: outcome, InjectedID: r.InjectedID}
		if r.Propagation != nil {
			t.Stats = *r.Propagation
		}
		prof.Trials = append(prof.Trials, t)
		counts[outcome]++
		sums[outcome] += float64(t.Stats.TaintedDyn)
		if t.Stats.TaintedOutputs > 0 || t.Stats.TaintedBranches > 0 || t.Stats.WildStores > 0 {
			reached[outcome]++
		}
	}
	for o, n := range counts {
		prof.MeanTaintedDyn[o] = sums[o] / float64(n)
		prof.OutputReached[o] = float64(reached[o]) / float64(n)
	}
	return prof, nil
}

// Render formats the profile.
func (p *Profile) Render() string {
	out := fmt.Sprintf("%d traced fault injections\n", len(p.Trials))
	for _, o := range []campaign.Outcome{campaign.SDC, campaign.Crash, campaign.Benign, campaign.Hang} {
		if _, ok := p.MeanTaintedDyn[o]; !ok {
			continue
		}
		out += fmt.Sprintf("  %-7s mean corrupted dyn instrs %8.1f, corruption reached output/branch in %5.1f%% of trials\n",
			o, p.MeanTaintedDyn[o], p.OutputReached[o]*100)
	}
	return out
}

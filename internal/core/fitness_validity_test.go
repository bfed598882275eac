package core

import (
	"errors"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ir"
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
			small, err := FindSmallFIInput(b, rng)
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

// TestFitnessRejectsDetectedRuns: an input whose fault-free run raises
// sdc_detect is invalid (§3.1.2), and NewGolden rejects it. Fitness must
// score it 0 like every other failed run, and EvalProbe must report it
// invalid, or the GA could rank it best and report an input the closing
// campaign cannot measure.
func TestFitnessRejectsDetectedRuns(t *testing.T) {
	// main(n) { v = n*3; if n > 100 { sdc_detect() }; print v; return v }
	m := ir.NewModule("detectabove")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	v := b.Mul(b.Param(0), ir.I64c(3))
	detect := b.Block("detect")
	done := b.Block("done")
	b.CondBr(b.ICmp(ir.OpICmpSGT, b.Param(0), ir.I64c(100)), detect, done)
	b.SetBlock(detect)
	b.Call(ir.Void, "sdc_detect")
	b.Br(done)
	b.SetBlock(done)
	b.Call(ir.Void, "print_i64", v)
	b.Ret(v)
	bench, err := prog.Custom(m, []prog.ArgSpec{{Name: "n", Kind: prog.ArgInt, Min: 1, Max: 200, SmallMin: 1, SmallMax: 20, Ref: 50}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, bench.Prog.NumInstrs())
	for i := range scores {
		scores[i] = 1
	}
	fe := NewFitnessEval(bench, scores)
	if f, _ := fe.Eval([]float64{50}); f != 1 {
		t.Fatalf("valid input scored %v, want 1", f)
	}
	detected := []float64{150}
	if _, err := campaign.NewGolden(bench.Prog, bench.Encode(detected), bench.MaxDyn); !errors.Is(err, campaign.ErrInvalidInput) {
		t.Fatalf("NewGolden accepted a run that raised sdc_detect: %v", err)
	}
	if f, dyn := fe.Eval(detected); f != 0 || dyn == 0 {
		t.Fatalf("run that raised sdc_detect scored %v after %d dyn, want 0 after a full run", f, dyn)
	}
	if f, counters, _ := fe.EvalProbe(detected, nil); f != 0 || counters != nil {
		t.Fatalf("EvalProbe accepted a run that raised sdc_detect: fitness %v, counters %v", f, counters)
	}
}

package campaign

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/stats"
)

// TestAdaptiveEquivalence is the accuracy-and-savings gate for the adaptive
// stratified runner: on at least 5 of the 7 benchmarks the composed adaptive
// estimate must land inside the full 1000-trial campaign's Wilson interval
// while spending at least 30% fewer trials. Strata are heat-ranked from a
// cheap per-instruction profile — the scores the search pipeline gets for
// free from fitness profiling — which is what gives stratification its
// variance-reduction bite on the high-SDC-rate benchmarks. Adaptive strata
// sample through any fault model, so on every kernel the composed
// burst-fault interval must also overlap a flat 1000-trial burst campaign's
// Wilson interval.
func TestAdaptiveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign reference is expensive")
	}
	const fullTrials = 1000
	names := prog.Names()
	pass, saved := 0, 0
	for _, name := range names {
		b := prog.Build(name)
		in := b.Encode(b.RefInput())
		g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
		if err != nil {
			t.Fatal(err)
		}
		ids := AllInstructionIDs(b.Prog)
		profile := PerInstructionParallel(b.Prog, g, ids, 6, ParallelOptions{Workers: 4, Seed: 99, BatchSize: 32})
		scores := PerInstructionVector(g.NumInstrs, profile)
		full := OverallParallel(b.Prog, g, fullTrials, ParallelOptions{Workers: 4, Seed: 11, BatchSize: 32})
		lo, hi := stats.WilsonInterval95(full.SDC, full.Trials)
		res := OverallAdaptive(b.Prog, g, AdaptiveOptions{Workers: 4, Seed: 11, MaxTrials: fullTrials, Scores: scores})
		inInterval := res.Estimate >= lo && res.Estimate <= hi
		savedEnough := res.Counts.Trials <= fullTrials*7/10
		t.Logf("%s: full=%.4f [%.4f,%.4f] adaptive=%.4f [%.4f,%.4f] trials=%d/%d rounds=%d converged=%d/%d",
			name, full.SDCProbability(), lo, hi, res.Estimate, res.Lo, res.Hi,
			res.Counts.Trials, fullTrials, res.Rounds, res.StrataConverged(), len(res.Strata))
		if inInterval && savedEnough {
			pass++
		}
		if savedEnough {
			saved++
		}
		if res.Lo > res.Estimate || res.Hi < res.Estimate {
			t.Errorf("%s: composed interval [%.4f,%.4f] does not bracket estimate %.4f", name, res.Lo, res.Hi, res.Estimate)
		}

		burst := OverallParallel(b.Prog, g, fullTrials, ParallelOptions{Workers: 4, Seed: 11, BatchSize: 32, Model: fault.BurstFlip})
		blo, bhi := burst.SDCInterval()
		bres := OverallAdaptive(b.Prog, g, AdaptiveOptions{Workers: 4, Seed: 11, MaxTrials: fullTrials, Scores: scores, Model: fault.BurstFlip})
		t.Logf("%s: flat burst=%.4f [%.4f,%.4f] adaptive burst=%.4f [%.4f,%.4f] trials=%d/%d",
			name, burst.SDCProbability(), blo, bhi, bres.Estimate, bres.Lo, bres.Hi, bres.Counts.Trials, fullTrials)
		if bres.Hi < blo || bres.Lo > bhi {
			t.Errorf("%s: adaptive burst interval [%.4f,%.4f] misses the flat burst interval [%.4f,%.4f]",
				name, bres.Lo, bres.Hi, blo, bhi)
		}
	}
	if saved < 5 {
		t.Errorf("adaptive saved >=30%% trials on only %d/%d benchmarks (need >=5)", saved, len(names))
	}
	if pass < 5 {
		t.Errorf("adaptive matched the full campaign with >=30%% savings on only %d/%d benchmarks (need >=5)", pass, len(names))
	}
}

// TestAdaptiveDeterminism: for a fixed seed the entire adaptive result —
// every stratum tally, allocation history, and composed bound — must be
// bit-identical across worker counts and round runners (ShardedRunner at 1,
// 2 and 4 shards; one shard is plain RunPlans), including the serial
// schedule, under the default model and every other fault model.
func TestAdaptiveDeterminism(t *testing.T) {
	maxTrials := 400
	if testing.Short() {
		maxTrials = 150
	}
	for _, name := range prog.Names() {
		if testing.Short() && heavyBenches[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			in := b.Encode(b.RefInput())
			g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			base := AdaptiveOptions{Seed: 17, MaxTrials: maxTrials, CITarget: 0.02}
			refOpts := base
			refOpts.Workers = 1
			ref := OverallAdaptive(b.Prog, g, refOpts)
			for _, workers := range []int{1, 4} {
				for _, shards := range []int{1, 2, 4} {
					o := base
					o.Workers = workers
					o.Runner = ShardedRunner(shards)
					got := OverallAdaptive(b.Prog, g, o)
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("workers=%d shards=%d: adaptive result diverged from serial reference\ngot  %+v\nwant %+v", workers, shards, got, ref)
					}
				}
			}
			for _, m := range []fault.Model{fault.DoubleFlip, fault.BurstFlip, fault.ValueCorrupt} {
				refOpts.Model = m
				mref := OverallAdaptive(b.Prog, g, refOpts)
				for _, workers := range []int{1, 4} {
					for _, shards := range []int{1, 2, 4} {
						o := refOpts
						o.Workers = workers
						o.Runner = ShardedRunner(shards)
						if got := OverallAdaptive(b.Prog, g, o); !reflect.DeepEqual(got, mref) {
							t.Fatalf("model=%s workers=%d shards=%d: adaptive result diverged from serial reference\ngot  %+v\nwant %+v",
								m.Name(), workers, shards, got, mref)
						}
					}
				}
			}
		})
	}
}

// TestBuildStrata pins the partition invariants: strata are disjoint, cover
// exactly the executed instructions, carry consistent exec counts/weights,
// and the partition is a pure function of its inputs.
func TestBuildStrata(t *testing.T) {
	b := prog.Build("pathfinder")
	in := b.Encode(b.RefInput())
	g, err := NewGolden(b.Prog, in, b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	strata := BuildStrata(g, nil, DefaultAdaptiveStrata)
	if len(strata) == 0 || len(strata) > DefaultAdaptiveStrata {
		t.Fatalf("got %d strata, want 1..%d", len(strata), DefaultAdaptiveStrata)
	}
	seen := map[int]bool{}
	var execTotal int64
	var weightTotal float64
	for _, st := range strata {
		if len(st.IDs) == 0 {
			t.Fatal("empty stratum")
		}
		for _, id := range st.IDs {
			if seen[id] {
				t.Fatalf("instruction %d in two strata", id)
			}
			seen[id] = true
		}
		var cnt int64
		for _, id := range st.IDs {
			cnt += g.InstrCounts[id]
		}
		if cnt != st.ExecCount {
			t.Fatalf("stratum exec count %d != member sum %d", st.ExecCount, cnt)
		}
		execTotal += st.ExecCount
		weightTotal += st.Weight
	}
	executed := 0
	for _, n := range g.InstrCounts {
		if n > 0 {
			executed++
		}
	}
	if len(seen) != executed {
		t.Fatalf("strata cover %d instructions, golden executed %d", len(seen), executed)
	}
	if execTotal != g.DynCount {
		t.Fatalf("strata exec total %d != golden DynCount %d", execTotal, g.DynCount)
	}
	if weightTotal < 0.999 || weightTotal > 1.001 {
		t.Fatalf("stratum weights sum to %f", weightTotal)
	}
	again := BuildStrata(g, nil, DefaultAdaptiveStrata)
	if !reflect.DeepEqual(again, strata) {
		t.Fatal("BuildStrata is not deterministic")
	}
	// Scores reshape the ranking but never the coverage invariants.
	scores := make([]float64, g.NumInstrs)
	for i := range scores {
		scores[i] = float64(i%7) / 7
	}
	heat := BuildStrata(g, scores, 4)
	seen = map[int]bool{}
	for _, st := range heat {
		for _, id := range st.IDs {
			seen[id] = true
		}
	}
	if len(seen) != executed {
		t.Fatalf("heat strata cover %d instructions, want %d", len(seen), executed)
	}
}

// TestAdaptiveStopping pins the budget and stopping behaviour: the runner
// never exceeds MaxTrials, a generous CI target stops after the seed round,
// and a stratum marked converged really has a half-width below target.
func TestAdaptiveStopping(t *testing.T) {
	b := prog.Build("pathfinder")
	in := b.Encode(b.RefInput())
	g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Generous target: the seed round alone converges everything.
	res := OverallAdaptive(b.Prog, g, AdaptiveOptions{Seed: 5, CITarget: 0.5, MaxTrials: 1000})
	if res.Rounds != 1 {
		t.Fatalf("CI target 0.5 should stop after the seed round, ran %d rounds", res.Rounds)
	}
	if res.Counts.Trials > DefaultMinTrialsPerStratum*len(res.Strata) {
		t.Fatalf("seed round spent %d trials for %d strata", res.Counts.Trials, len(res.Strata))
	}
	// Impossible target: the budget cap is the only stop.
	res = OverallAdaptive(b.Prog, g, AdaptiveOptions{Seed: 5, CITarget: 1e-9, MaxTrials: 300})
	if res.Counts.Trials > 300 {
		t.Fatalf("spent %d trials, budget 300", res.Counts.Trials)
	}
	if res.Counts.Trials < 300 {
		t.Fatalf("impossible CI target should spend the whole budget, spent %d/300", res.Counts.Trials)
	}
	for i, st := range res.Strata {
		hw := (st.Hi - st.Lo) / 2
		if st.Converged && hw > 1e-9 {
			t.Fatalf("stratum %d marked converged with half-width %g", i, hw)
		}
	}
	if res.Lo > res.Estimate || res.Hi < res.Estimate {
		t.Fatalf("composed interval [%f,%f] does not bracket estimate %f", res.Lo, res.Hi, res.Estimate)
	}
	if res.Lo < 0 || res.Hi > 1 {
		t.Fatalf("composed interval [%f,%f] outside [0,1]", res.Lo, res.Hi)
	}
}

package sensitivity

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func goldenFor(t testing.TB, b *prog.Benchmark, input []float64) *campaign.Golden {
	t.Helper()
	g, err := campaign.NewGolden(b.Prog, b.Encode(input), b.MaxDyn)
	if err != nil {
		t.Fatalf("%s golden: %v", b.Name, err)
	}
	return g
}

func TestDeriveProducesNormalizedScores(t *testing.T) {
	b := prog.Build("pathfinder")
	g := goldenFor(t, b, []float64{8, 8, 7, 10})
	d := Derive(b.Prog, g, Options{TrialsPerRep: 10, UsePruning: true}, xrand.New(1))
	if len(d.Scores) != b.Prog.NumInstrs() {
		t.Fatalf("scores length %d", len(d.Scores))
	}
	lo, hi := 2.0, -1.0
	for _, s := range d.Scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1]", s)
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi != 1 || lo != 0 {
		t.Fatalf("scores not min-max normalized: [%v, %v]", lo, hi)
	}
	if d.Representatives >= b.Prog.NumInstrs() {
		t.Fatalf("pruning did not reduce FI space: %d reps", d.Representatives)
	}
	if d.FITrials == 0 || d.FIDynInstrs == 0 {
		t.Fatal("no cost accounted")
	}
}

func TestDeriveWithoutPruningCostsMore(t *testing.T) {
	b := prog.Build("needle")
	g := goldenFor(t, b, []float64{8, 5, 3, 3})
	rng := xrand.New(2)
	with := Derive(b.Prog, g, Options{TrialsPerRep: 5, UsePruning: true}, rng)
	without := Derive(b.Prog, g, Options{TrialsPerRep: 5, UsePruning: false}, rng)
	if with.FITrials >= without.FITrials {
		t.Fatalf("pruned trials %d should be < unpruned %d", with.FITrials, without.FITrials)
	}
	if without.Representatives != b.Prog.NumInstrs() {
		t.Fatalf("unpruned reps = %d", without.Representatives)
	}
}

func TestGroupMembersShareProbability(t *testing.T) {
	b := prog.Build("pathfinder")
	g := goldenFor(t, b, []float64{8, 8, 7, 10})
	d := Derive(b.Prog, g, Options{TrialsPerRep: 8, UsePruning: true}, xrand.New(3))
	// With pruning, the distinct raw probability values cannot exceed the
	// number of representatives.
	distinct := map[float64]bool{}
	for _, p := range d.RawProb {
		distinct[p] = true
	}
	if len(distinct) > d.Representatives {
		t.Fatalf("%d distinct probs > %d representatives", len(distinct), d.Representatives)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	b := prog.Build("fft")
	g := goldenFor(t, b, []float64{4, 11, 1})
	d1 := Derive(b.Prog, g, Options{TrialsPerRep: 6, UsePruning: true}, xrand.New(9))
	d2 := Derive(b.Prog, g, Options{TrialsPerRep: 6, UsePruning: true}, xrand.New(9))
	for i := range d1.Scores {
		if d1.Scores[i] != d2.Scores[i] {
			t.Fatal("derivation not reproducible")
		}
	}
}

func TestStabilityAcrossInputs(t *testing.T) {
	// The paper's core observation (Table 3): per-instruction SDC
	// probability rankings correlate strongly across inputs. Verify our
	// substrate reproduces it on a cheap benchmark.
	if testing.Short() {
		t.Skip("FI-heavy")
	}
	b := prog.Build("pathfinder")
	rng := xrand.New(31)
	inputs := [][]float64{
		{8, 8, 7, 10},
		{10, 8, 91, 25},
		{8, 12, 1234, 6},
		{12, 10, 555, 60},
	}
	var vectors [][]float64
	ids := campaign.AllInstructionIDs(b.Prog)
	for _, in := range inputs {
		g := goldenFor(t, b, in)
		res := campaign.PerInstructionParallel(b.Prog, g, ids, 20, campaign.ParallelOptions{Seed: rng.Uint64()})
		vectors = append(vectors, campaign.PerInstructionVector(b.Prog.NumInstrs(), res))
	}
	rho, err := Stability(vectors)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pathfinder rank stability rho = %.3f", rho)
	if rho < 0.3 {
		t.Fatalf("rank stability %.3f too low; paper reports 0.59-0.96", rho)
	}
}

func TestScoresCorrelateWithDirectMeasurement(t *testing.T) {
	// The pruned, 30-trial distribution should rank instructions similarly
	// to a heavier unpruned measurement on the same input.
	if testing.Short() {
		t.Skip("FI-heavy")
	}
	b := prog.Build("needle")
	g := goldenFor(t, b, []float64{8, 5, 3, 3})
	d := Derive(b.Prog, g, Options{TrialsPerRep: 30, UsePruning: true}, xrand.New(5))
	ids := campaign.AllInstructionIDs(b.Prog)
	res := campaign.PerInstructionParallel(b.Prog, g, ids, 40, campaign.ParallelOptions{Seed: 6})
	direct := campaign.PerInstructionVector(b.Prog.NumInstrs(), res)
	rho, err := Stability([][]float64{d.RawProb, direct})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pruned-vs-direct rho = %.3f", rho)
	if rho < 0.4 {
		t.Fatalf("pruned scores rank-correlate %.3f with direct measurement; too low", rho)
	}
}

// The composed path derives segment-constant scores from cached profiles:
// the first derivation pays for profile measurement, a repeat derivation
// for the same mix costs nothing and returns identical scores.
func TestDeriveComposedIncremental(t *testing.T) {
	b := prog.Build("pathfinder")
	g := goldenFor(t, b, []float64{8, 8, 7, 10})
	est := compose.NewEstimator(b.Prog, nil, compose.Options{Trials: 240, Seed: 9})

	first := Derive(b.Prog, g, Options{Compose: est}, xrand.New(1))
	if first.Composed == nil {
		t.Fatal("composed derivation did not record its estimate")
	}
	if first.FITrials == 0 || first.FIDynInstrs == 0 {
		t.Fatal("first composed derivation must pay for profile measurement")
	}
	if len(first.Scores) != b.Prog.NumInstrs() {
		t.Fatalf("scores length %d", len(first.Scores))
	}
	for _, s := range first.Scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1]", s)
		}
	}
	// Instructions within one executed segment share a raw probability.
	part := est.Partition()
	for si, seg := range part.Segments {
		if first.Composed.Segments[si].Weight == 0 {
			continue
		}
		var want float64
		set := false
		for _, id := range seg.Instrs {
			if g.InstrCounts[id] == 0 {
				continue
			}
			if !set {
				want, set = first.RawProb[id], true
			} else if first.RawProb[id] != want {
				t.Fatalf("segment %s not probability-constant", seg.Name)
			}
		}
	}

	second := Derive(b.Prog, g, Options{Compose: est}, xrand.New(2))
	if second.FITrials != 0 || second.FIDynInstrs != 0 {
		t.Fatalf("repeat derivation spent trials=%d dyn=%d, want 0", second.FITrials, second.FIDynInstrs)
	}
	for i := range first.Scores {
		if first.Scores[i] != second.Scores[i] {
			t.Fatalf("repeat derivation changed score at %d", i)
		}
	}
}

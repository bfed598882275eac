package duplication

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func refGolden(t testing.TB, b *prog.Benchmark) *campaign.Golden {
	t.Helper()
	g, err := campaign.NewGolden(b.Prog, b.Encode(b.RefInput()), b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSelectRespectsBudget(t *testing.T) {
	b := prog.Build("pathfinder")
	g := refGolden(t, b)
	profiles := Profile(b.Prog, g, 10, xrand.New(1))
	for _, level := range []float64{0.3, 0.5, 0.7} {
		pr := Select(profiles, g.DynCount, level)
		budget := int64(level * float64(g.DynCount))
		// Scaled-weight rounding keeps selections within the budget.
		if pr.CostDyn > budget {
			t.Fatalf("level %.0f%%: cost %d exceeds budget %d", level*100, pr.CostDyn, budget)
		}
		if len(pr.Protected) == 0 {
			t.Fatalf("level %.0f%%: nothing protected", level*100)
		}
	}
}

func TestSelectMonotoneInLevel(t *testing.T) {
	b := prog.Build("needle")
	g := refGolden(t, b)
	profiles := Profile(b.Prog, g, 10, xrand.New(2))
	prev := -1.0
	for _, level := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		pr := Select(profiles, g.DynCount, level)
		if pr.Benefit < prev-1e-9 {
			t.Fatalf("benefit decreased at level %v", level)
		}
		prev = pr.Benefit
	}
}

func TestSelectZeroBudget(t *testing.T) {
	b := prog.Build("fft")
	g := refGolden(t, b)
	profiles := Profile(b.Prog, g, 5, xrand.New(3))
	pr := Select(profiles, g.DynCount, 0)
	if len(pr.Protected) != 0 || pr.CostDyn != 0 {
		t.Fatalf("zero budget selected %d instrs", len(pr.Protected))
	}
}

func TestSelectKnownKnapsack(t *testing.T) {
	// Hand-built instance: capacity 10, items (w=6,v=6), (w=5,v=5),
	// (w=5,v=5). Optimum picks the two 5s (v=10), not the greedy 6.
	profiles := []InstrProfile{
		{ID: 0, SDCProb: 1.0, ExecCount: 6},
		{ID: 1, SDCProb: 1.0, ExecCount: 5},
		{ID: 2, SDCProb: 1.0, ExecCount: 5},
	}
	pr := Select(profiles, 100, 0.10) // capacity 10
	if pr.IsProtected[0] || !pr.IsProtected[1] || !pr.IsProtected[2] {
		t.Fatalf("knapsack picked %v, want items 1 and 2", pr.Protected)
	}
	if pr.CostDyn != 10 {
		t.Fatalf("cost %d, want 10", pr.CostDyn)
	}
}

func TestDetector(t *testing.T) {
	pr := &Protection{IsProtected: []bool{false, true, false}}
	det := pr.Detector()
	if det(0) || !det(1) || det(2) || det(-1) || det(99) {
		t.Fatal("detector predicate wrong")
	}
}

func TestProtectionReducesSDC(t *testing.T) {
	b := prog.Build("pathfinder")
	g := refGolden(t, b)
	rng := xrand.New(5)
	profiles := Profile(b.Prog, g, 10, rng)
	pr := Select(profiles, g.DynCount, 0.7)
	res := MeasureCoverage(b.Prog, g, pr, 300, rng)
	if res.Protected.SDCProbability() > res.Unprotected.SDCProbability() {
		t.Fatalf("protection increased SDC: %v -> %v",
			res.Unprotected.SDCProbability(), res.Protected.SDCProbability())
	}
	if res.Coverage <= 0 {
		t.Fatalf("70%% protection yields no coverage (%v)", res.Coverage)
	}
	t.Logf("pathfinder 70%%: coverage %.2f (SDC %.3f -> %.3f)",
		res.Coverage, res.Unprotected.SDCProbability(), res.Protected.SDCProbability())
}

func TestCoverageBounds(t *testing.T) {
	b := prog.Build("fft")
	g := refGolden(t, b)
	rng := xrand.New(7)
	profiles := Profile(b.Prog, g, 5, rng)
	for _, level := range []float64{0.3, 0.7} {
		pr := Select(profiles, g.DynCount, level)
		res := MeasureCoverage(b.Prog, g, pr, 150, rng)
		if res.Coverage < 0 || res.Coverage > 1 {
			t.Fatalf("coverage %v out of [0,1]", res.Coverage)
		}
	}
}

// TestMeasureCoveragePaired: the protected and unprotected campaigns run
// the same trials, so they spend the same dynamic instructions and the
// detector can only turn SDCs into detections, never add one.
func TestMeasureCoveragePaired(t *testing.T) {
	for _, name := range prog.Names() {
		b := prog.Build(name)
		g := refGolden(t, b)
		profiles := make([]InstrProfile, len(g.InstrCounts))
		for id, n := range g.InstrCounts {
			profiles[id] = InstrProfile{ID: id, SDCProb: 1, ExecCount: n}
		}
		pr := Select(profiles, g.DynCount, 0.5)
		res := MeasureCoverage(b.Prog, g, pr, 100, xrand.New(3))
		u, p := res.Unprotected, res.Protected
		if u.Trials != p.Trials || u.DynInstrs != p.DynInstrs {
			t.Errorf("%s: campaigns not paired: unprotected %+v, protected %+v", name, u, p)
		}
		if p.SDC > u.SDC {
			t.Errorf("%s: protection added SDCs: %d > %d", name, p.SDC, u.SDC)
		}
	}
}

func TestStressTestShape(t *testing.T) {
	// The §6 result in miniature: expected coverage (reference input)
	// should exceed actual coverage (a different, more SDC-prone input)
	// at least at some level; and the full-protection sanity holds.
	b := prog.Build("pathfinder")
	ref := refGolden(t, b)
	// Use a handpicked non-reference input as the "SDC-bound" stand-in.
	bound, err := campaign.NewGolden(b.Prog, b.Encode([]float64{40, 6, 999, 800}), b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	profiles := Profile(b.Prog, ref, 10, rng)
	levels := []float64{0.3, 0.5, 0.7}
	results := StressTest(b.Prog, ref, bound, profiles, levels, 200, rng)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Level != levels[i] {
			t.Fatalf("level order wrong")
		}
		if r.Expected.Coverage < 0 || r.Expected.Coverage > 1 || r.Actual.Coverage < 0 || r.Actual.Coverage > 1 {
			t.Fatalf("coverage out of range: %+v", r)
		}
		t.Logf("level %.0f%%: expected %.2f actual %.2f (protected %d instrs)",
			r.Level*100, r.Expected.Coverage, r.Actual.Coverage, len(r.Protection.Protected))
	}
}

func TestProfileSkipsUnexecuted(t *testing.T) {
	b := prog.Build("hpccg")
	g := refGolden(t, b)
	profiles := Profile(b.Prog, g, 5, xrand.New(13))
	if len(profiles) != b.Prog.NumInstrs() {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for _, p := range profiles {
		if p.ExecCount == 0 && p.SDCProb != 0 {
			t.Fatalf("unexecuted instr %d has SDC prob %v", p.ID, p.SDCProb)
		}
	}
}

func TestOverhead(t *testing.T) {
	pr := &Protection{CostDyn: 300}
	if pr.Overhead(1000) != 0.3 {
		t.Fatal("overhead fraction wrong")
	}
	if pr.Overhead(0) != 0 {
		t.Fatal("zero-dyn overhead")
	}
}

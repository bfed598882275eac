package compose

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestComposeEquivalence is the accuracy gate of the compositional
// estimator: on EVERY benchmark the composed estimate must land inside a
// direct 1000-trial campaign's 95% Wilson interval — first for a fresh
// measurement pass, then for a second input whose estimate composes reused
// profiles (re-measuring only segments past the drift threshold).
func TestComposeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign reference is expensive")
	}
	const fullTrials = 1000
	for _, name := range prog.Names() {
		b := prog.Build(name)
		// 2400 trials halve the composed estimator's own sampling error
		// relative to the 1000-trial reference interval it must land in.
		e := NewEstimator(b.Prog, nil, Options{Trials: 2400, Seed: 20211114, Workers: 4})

		gA := golden(t, b, b.RefInput())
		directA := campaign.OverallParallel(b.Prog, gA, fullTrials, campaign.ParallelOptions{Workers: 4, Seed: 11})
		loA, hiA := stats.WilsonInterval95(directA.SDC, directA.Trials)
		estA := e.EstimateGolden(gA)
		t.Logf("%s fresh: direct=%.4f [%.4f,%.4f] composed=%.4f [%.4f,%.4f] trials=%d",
			name, directA.SDCProbability(), loA, hiA, estA.SDC, estA.Lo, estA.Hi, estA.MeasureTrials)
		if estA.SDC < loA || estA.SDC > hiA {
			t.Errorf("%s: fresh composed estimate %.4f outside direct interval [%.4f,%.4f]", name, estA.SDC, loA, hiA)
		}
		if estA.Lo > estA.SDC || estA.Hi < estA.SDC {
			t.Errorf("%s: composed interval [%.4f,%.4f] does not bracket %.4f", name, estA.Lo, estA.Hi, estA.SDC)
		}

		// A GA-like neighbor: a small relative perturbation of the same
		// input, the shape of candidates the search evaluates generation
		// after generation. Profiles reuse where the mix holds and
		// re-measure where it drifts; either way the estimate must match a
		// direct campaign on the neighbor.
		rng := xrand.New(nameSeed(name))
		inB := b.RefInput()
		for i := range inB {
			inB[i] *= 1 + 0.06*(rng.Float64()-0.5)
		}
		gB := golden(t, b, b.ClampInput(inB))
		directB := campaign.OverallParallel(b.Prog, gB, fullTrials, campaign.ParallelOptions{Workers: 4, Seed: 13})
		loB, hiB := stats.WilsonInterval95(directB.SDC, directB.Trials)
		estB := e.EstimateGolden(gB)
		t.Logf("%s reuse: direct=%.4f [%.4f,%.4f] composed=%.4f [%.4f,%.4f] reused=%d remeasured=%d",
			name, directB.SDCProbability(), loB, hiB, estB.SDC, estB.Lo, estB.Hi, estB.Reused, estB.Remeasured)
		if estB.SDC < loB || estB.SDC > hiB {
			t.Errorf("%s: reuse composed estimate %.4f outside direct interval [%.4f,%.4f]", name, estB.SDC, loB, hiB)
		}
	}
}

// nameSeed gives each benchmark its own fixed input stream (FNV-1a).
func nameSeed(name string) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// TestComposeBitIdentity pins the determinism contract: the measurement
// pass and the exact-reuse estimate must be bit-identical at workers 1 and
// 4 crossed with the in-process runner and campaign.ShardedRunner at 2 and
// 4 shards.
func TestComposeBitIdentity(t *testing.T) {
	type config struct{ workers, shards int }
	configs := []config{{1, 1}, {1, 2}, {1, 4}, {4, 1}, {4, 2}, {4, 4}}
	for _, name := range prog.Names() {
		b := prog.Build(name)
		g := golden(t, b, b.RefInput())
		var refFirst, refSecond *Estimate
		for _, c := range configs {
			e := NewEstimator(b.Prog, nil, Options{Trials: 240, Seed: 41, Workers: c.workers, Runner: campaign.ShardedRunner(c.shards)})
			first := e.EstimateGolden(g)
			second := e.EstimateGolden(g)
			if second.MeasureTrials != 0 || second.MeasureDyn != 0 {
				t.Fatalf("%s w=%d s=%d: exact reuse spent measurement", name, c.workers, c.shards)
			}
			if refFirst == nil {
				refFirst, refSecond = first, second
				continue
			}
			if !reflect.DeepEqual(first, refFirst) {
				t.Errorf("%s: measurement estimate differs at workers=%d shards=%d", name, c.workers, c.shards)
			}
			if !reflect.DeepEqual(second, refSecond) {
				t.Errorf("%s: exact-reuse estimate differs at workers=%d shards=%d", name, c.workers, c.shards)
			}
		}
		// Exact reuse must reproduce the measured numbers bit-for-bit.
		if refFirst.SDC != refSecond.SDC || refFirst.Lo != refSecond.Lo || refFirst.Hi != refSecond.Hi {
			t.Errorf("%s: exact-reuse estimate drifted from measurement: %v vs %v", name, refSecond.SDC, refFirst.SDC)
		}
	}
}

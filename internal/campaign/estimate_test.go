package campaign

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// randomCounts draws a tally of n ≥ 1 trials whose SDC count is 0, n or
// anything between, with the rest spread over the other outcomes.
func randomCounts(rng *xrand.RNG) Counts {
	n := 1 + rng.Intn(200)
	c := Counts{Trials: n, DynInstrs: rng.Int63n(1 << 30)}
	switch rng.Intn(4) {
	case 0:
		c.SDC = 0
	case 1:
		c.SDC = n
	default:
		c.SDC = rng.Intn(n + 1)
	}
	rest := n - c.SDC
	c.Crash = rng.Intn(rest + 1)
	c.Hang = rng.Intn(rest - c.Crash + 1)
	c.Detected = rng.Intn(rest - c.Crash - c.Hang + 1)
	c.Benign = rest - c.Crash - c.Hang - c.Detected
	return c
}

// randomParts draws 1–8 parts whose weights sum to at most 1, as strata of
// a run whose uninjectable remainder contributes nothing.
func randomParts(rng *xrand.RNG) []Part {
	parts := make([]Part, 1+rng.Intn(8))
	var sum float64
	for i := range parts {
		parts[i] = Part{Weight: 0.01 + rng.Float64(), Counts: randomCounts(rng)}
		sum += parts[i].Weight
	}
	cover := 0.5 + rng.Float64()/2
	for i := range parts {
		parts[i].Weight *= cover / sum
	}
	return parts
}

// TestStratifiedSinglePartIsWilson: one part of weight 1 is a flat
// campaign, so the composition must reproduce its Wilson interval.
func TestStratifiedSinglePartIsWilson(t *testing.T) {
	rng := xrand.New(3)
	for i := 0; i < 500; i++ {
		c := randomCounts(rng)
		e := Compose([]Part{{Weight: 1, Counts: c}})
		lo, hi := stats.WilsonInterval95(c.SDC, c.Trials)
		if e.P != c.SDCProbability() || math.Abs(e.Lo-lo) > 1e-12 || math.Abs(e.Hi-hi) > 1e-12 {
			t.Fatalf("%+v: composed %v [%v, %v], flat %v [%v, %v]", c, e.P, e.Lo, e.Hi, c.SDCProbability(), lo, hi)
		}
		if e.Counts != c {
			t.Fatalf("pooled %+v, want %+v", e.Counts, c)
		}
	}
}

// TestStratifiedBracketsInUnit: on random tallies, zero and full SDC
// counts included, the interval brackets P inside [0, 1] with a positive
// width.
func TestStratifiedBracketsInUnit(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		parts := randomParts(rng)
		e := Compose(parts)
		if !(0 <= e.Lo && e.Lo <= e.P && e.P <= e.Hi && e.Hi <= 1 && e.Hi > e.Lo) {
			t.Fatalf("parts %+v: estimate %v [%v, %v]", parts, e.P, e.Lo, e.Hi)
		}
		if lo, hi := e.SDCInterval(); e.SDCProbability() != e.P || lo != e.Lo || hi != e.Hi {
			t.Fatalf("estimate methods read the pooled tally, not the estimate: %+v", e)
		}
	}
}

// TestStratifiedPoolsCountsInPartOrder: the pooled tally is Counts.Merge
// applied part by part.
func TestStratifiedPoolsCountsInPartOrder(t *testing.T) {
	rng := xrand.New(7)
	for i := 0; i < 200; i++ {
		parts := randomParts(rng)
		var want Counts
		for _, pt := range parts {
			want.Merge(pt.Counts)
		}
		if got := Compose(parts).Counts; got != want {
			t.Fatalf("pooled %+v, want %+v", got, want)
		}
	}
}

// TestStratifiedNothingMeasured: with no parts, or no trial in any part,
// nothing was measured, so the estimate is 0 with the whole unit interval.
func TestStratifiedNothingMeasured(t *testing.T) {
	for _, parts := range [][]Part{nil, {}, {{Weight: 0.6}, {Weight: 0.4}}} {
		if e := Compose(parts); e != (Estimate{P: 0, Lo: 0, Hi: 1}) {
			t.Fatalf("Compose(%v) = %+v, want 0 in [0, 1]", parts, e)
		}
	}
}

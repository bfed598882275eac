package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance singleton = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{9}, 50); got != 9 {
		t.Fatalf("singleton percentile = %v", got)
	}
}

func TestPercentileOfValue(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := PercentileOfValue(xs, 9.5); got != 0.9 {
		t.Fatalf("PercentileOfValue = %v, want 0.9", got)
	}
	if got := PercentileOfValue(xs, 0); got != 0 {
		t.Fatalf("PercentileOfValue = %v, want 0", got)
	}
	if got := PercentileOfValue(nil, 1); got != 0 {
		t.Fatalf("empty sample percentile = %v", got)
	}
}

// Midrank tie handling: a value equal to part (or all) of the sample stands
// at (below + equal/2)/n, never at the strictly-below rank alone. The
// all-equal case is the Figure 6 regression: a flat heat map's mean grid
// point must stand at the 50th percentile, not the 0th.
func TestPercentileOfValueTies(t *testing.T) {
	flat := []float64{0.3, 0.3, 0.3, 0.3}
	if got := PercentileOfValue(flat, 0.3); got != 0.5 {
		t.Fatalf("all-equal sample: standing = %v, want 0.5", got)
	}
	// One exact tie among distinct values: below=2, equal=1, n=5.
	xs := []float64{1, 2, 3, 4, 5}
	if got := PercentileOfValue(xs, 3); got != 0.5 {
		t.Fatalf("midrank standing of 3 in 1..5 = %v, want 0.5", got)
	}
	// Two ties: below=1, equal=2, n=4 → (1+1)/4.
	xs = []float64{1, 2, 2, 3}
	if got := PercentileOfValue(xs, 2); got != 0.5 {
		t.Fatalf("midrank standing of 2 = %v, want 0.5", got)
	}
	// Untied values are unaffected by the midrank term.
	if got := PercentileOfValue(xs, 2.5); got != 0.75 {
		t.Fatalf("untied standing = %v, want 0.75", got)
	}
}

func TestRanksSimple(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks with ties = %v, want %v", got, want)
		}
	}
	// All-equal input: every rank is the average rank.
	got = Ranks([]float64{5, 5, 5})
	for _, r := range got {
		if r != 2 {
			t.Fatalf("all-tie ranks = %v", got)
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson negative = %v", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("degenerate Pearson = %v, %v", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrTooFewSamples {
		t.Fatalf("want ErrTooFewSamples, got %v", err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any monotone transform gives rho = 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	r, err := Spearman(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Spearman monotone = %v, %v", r, err)
	}
}

func TestSpearmanReversed(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 8, 6, 4, 2}
	r, _ := Spearman(xs, ys)
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Spearman reversed = %v", r)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic example with no ties: rho = 1 - 6*sum(d^2)/(n(n^2-1)).
	xs := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	ys := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	r, _ := Spearman(xs, ys)
	if !almostEqual(r, -29.0/165.0, 1e-9) {
		t.Fatalf("Spearman = %v, want %v", r, -29.0/165.0)
	}
}

func TestSpearmanIndependentNearZero(t *testing.T) {
	rng := xrand.New(4)
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r, _ := Spearman(xs, ys)
	if math.Abs(r) > 0.06 {
		t.Fatalf("independent Spearman = %v, want ~0", r)
	}
}

func TestPairwiseMeanSpearman(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	// pairs: (0,1)=1, (0,2)=-1, (1,2)=-1 → mean = -1/3
	got, err := PairwiseMeanSpearman(rows)
	if err != nil || !almostEqual(got, -1.0/3.0, 1e-12) {
		t.Fatalf("PairwiseMeanSpearman = %v, %v", got, err)
	}
	if _, err := PairwiseMeanSpearman(rows[:1]); err != ErrTooFewSamples {
		t.Fatalf("want ErrTooFewSamples, got %v", err)
	}
}

func TestWilsonCI(t *testing.T) {
	// Known value: k=10, n=40 at 95% → center ≈ 0.2719, bounds
	// ≈ [0.1419, 0.4019], half-width ≈ 0.13003.
	got := WilsonCI(10, 40, z95)
	if !almostEqual(got, 0.13003, 1e-4) {
		t.Fatalf("WilsonCI(10, 40) = %v, want ~0.13003", got)
	}
	if WilsonCI(3, 0, z95) != 0 {
		t.Fatal("WilsonCI with n=0 should be 0")
	}
	// A wider quantile widens the interval.
	if !(WilsonCI(10, 40, 2.575829) > got) {
		t.Fatal("99% interval should be wider than 95%")
	}
}

func TestWilsonInterval(t *testing.T) {
	// Known value: k=10, n=40 at 95% → [0.1419, 0.4019] around the adjusted
	// midpoint ≈ 0.2719 (NOT around p̂ = 0.25).
	lo, hi := WilsonInterval(10, 40, z95)
	if !almostEqual(lo, 0.1419, 1e-3) || !almostEqual(hi, 0.4019, 1e-3) {
		t.Fatalf("WilsonInterval(10,40) = [%v, %v], want ~[0.1419, 0.4019]", lo, hi)
	}
	mid := WilsonMidpoint(10, 40, z95)
	if !almostEqual(mid, (lo+hi)/2, 1e-12) {
		t.Fatalf("midpoint %v is not the interval center %v", mid, (lo+hi)/2)
	}
	if !almostEqual(hi-lo, 2*WilsonCI(10, 40, z95), 1e-12) {
		t.Fatal("interval width disagrees with WilsonCI half-width")
	}
	// The p̂ ± half-width misuse this interval replaces: at k=0 the naive
	// lower bound 0 - WilsonCI(0,n) is negative; the true bound is 0.
	if p := 0.0 - WilsonCI(0, 100, z95); p >= 0 {
		t.Fatal("test premise broken: naive k=0 lower bound should be negative")
	}
	if lo, _ := WilsonInterval95(0, 100); lo != 0 {
		t.Fatalf("WilsonInterval95(0,100) lower bound = %v, want exactly 0", lo)
	}
	if _, hi := WilsonInterval95(100, 100); hi != 1 {
		t.Fatalf("WilsonInterval95(n,n) upper bound = %v, want exactly 1", hi)
	}
	// No data constrains nothing.
	if lo, hi := WilsonInterval(0, 0, z95); lo != 0 || hi != 1 {
		t.Fatalf("n=0 interval = [%v, %v], want [0, 1]", lo, hi)
	}
}

// Property: for every (k, n, z) the Wilson bounds stay inside [0,1], bracket
// p̂, and are exactly 0 at k=0 / exactly 1 at k=n. This is the acceptance
// property of the interval-asymmetry bugfix.
func TestWilsonIntervalProperty(t *testing.T) {
	rng := xrand.New(7)
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(5000)
		k := rng.Intn(n + 1)
		z := 0.5 + rng.Float64()*3 // quantiles from ~69% to ~99.97%
		lo, hi := WilsonInterval(k, n, z)
		p := float64(k) / float64(n)
		if lo < 0 || hi > 1 || lo > hi {
			t.Fatalf("WilsonInterval(%d,%d,%v) = [%v, %v] outside [0,1]", k, n, z, lo, hi)
		}
		if p < lo-1e-12 || p > hi+1e-12 {
			t.Fatalf("WilsonInterval(%d,%d,%v) = [%v, %v] does not bracket p̂=%v", k, n, z, lo, hi, p)
		}
		if lo0, _ := WilsonInterval(0, n, z); lo0 != 0 {
			t.Fatalf("k=0 lower bound = %v, want 0 (n=%d z=%v)", lo0, n, z)
		}
		if _, hin := WilsonInterval(n, n, z); hin != 1 {
			t.Fatalf("k=n upper bound = %v, want 1 (n=%d z=%v)", hin, n, z)
		}
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("Normalize = %v", got)
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Fatal("Normalize(nil) should be empty")
	}
}

// Uniform nonzero inputs must normalize to uniform ones, not zeros: a flat
// raw SDC probability vector carries no ranking signal but plenty of
// vulnerability signal, and all-zero scores would flatten every candidate's
// fitness to 0 (the Σᵢ scoreᵢ·Nᵢ/N sum loses every term).
func TestNormalizeUniformInputs(t *testing.T) {
	for _, v := range Normalize([]float64{3, 3, 3}) {
		if v != 1 {
			t.Fatal("uniform nonzero Normalize should be all ones")
		}
	}
	for _, v := range Normalize([]float64{0, 0, 0}) {
		if v != 0 {
			t.Fatal("all-zero Normalize should stay all zeros")
		}
	}
	if got := Normalize([]float64{0.25}); got[0] != 1 {
		t.Fatalf("single nonzero value should normalize to 1, got %v", got[0])
	}
}

func TestHistogram(t *testing.T) {
	counts, nan := Histogram([]float64{0.05, 0.15, 0.95, -1, 2}, 0, 1, 10)
	if nan != 0 {
		t.Fatalf("nan count = %d, want 0", nan)
	}
	if counts[0] != 2 { // 0.05 and clamped -1
		t.Fatalf("bin 0 = %d", counts[0])
	}
	if counts[1] != 1 {
		t.Fatalf("bin 1 = %d", counts[1])
	}
	if counts[9] != 2 { // 0.95 and clamped 2
		t.Fatalf("bin 9 = %d", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("histogram total = %d", total)
	}
}

// NaNs must be skipped and tallied, not clamped into bin 0: int(NaN) is 0 in
// Go, so the old code invented mass at the low end of the distribution.
func TestHistogramNaN(t *testing.T) {
	nanv := math.NaN()
	counts, nan := Histogram([]float64{nanv, 0.05, nanv, 0.95, nanv}, 0, 1, 10)
	if nan != 3 {
		t.Fatalf("nan count = %d, want 3", nan)
	}
	if counts[0] != 1 {
		t.Fatalf("bin 0 = %d, want 1 (NaNs must not clamp into bin 0)", counts[0])
	}
	if counts[9] != 1 {
		t.Fatalf("bin 9 = %d, want 1", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Fatalf("binned total = %d, want 2", total)
	}
	counts, nan = Histogram([]float64{nanv, nanv}, 0, 1, 4)
	if nan != 2 || counts[0] != 0 {
		t.Fatalf("all-NaN histogram: counts=%v nan=%d", counts, nan)
	}
}

// Property: Spearman is invariant under strictly monotone transforms of
// either variable.
func TestSpearmanMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 20
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		r1, err1 := Spearman(xs, ys)
		tx := make([]float64, n)
		for i := range xs {
			tx[i] = math.Exp(xs[i] / 50) // strictly increasing
		}
		r2, err2 := Spearman(tx, ys)
		return err1 == nil && err2 == nil && almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are a permutation-consistent relabeling — sum of ranks is
// n(n+1)/2 regardless of ties.
func TestRanksSumProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10)) // force ties
		}
		var sum float64
		for _, r := range Ranks(xs) {
			sum += r
		}
		return almostEqual(sum, float64(n*(n+1))/2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalized output is always within [0,1].
func TestNormalizeBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(-1000, 1000)
		}
		for _, v := range Normalize(xs) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

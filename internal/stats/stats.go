// Package stats provides the statistical primitives used throughout the
// PEPPA-X reproduction: Spearman's rank correlation (Tables 2 and 3 of the
// paper), binomial confidence intervals for fault-injection measurements
// (§3.1.4), percentiles, and simple descriptive statistics.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired-sample functions receive slices
// of different lengths.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// ErrTooFewSamples is returned when an estimator needs more data points than
// were supplied.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or p out
// of range.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0,100]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// PercentileOfValue returns the percentile standing (0..1) of v in the
// sample xs, using midrank tie handling: (below + equal/2) / n. Used for the
// heat-map analysis of Figure 6 ("a randomly sampled input is above the 96th
// percentile").
//
// Strictly-below counting alone is tie-blind: a value equal to the entire
// sample would stand at the 0th percentile even though it sits exactly in
// the middle of the distribution — a flat SDC heat map would report its mean
// grid point as "bottom of the distribution". Midrank standing places a
// value tied with the whole sample at 0.5 and degrades gracefully for
// partial ties.
func PercentileOfValue(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	below, equal := 0, 0
	for _, x := range xs {
		switch {
		case x < v:
			below++
		case x == v:
			equal++
		}
	}
	return (float64(below) + float64(equal)/2) / float64(len(xs))
}

// Ranks assigns fractional ranks (average rank for ties), 1-based, as used by
// Spearman's rank correlation.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) tie; average of ranks i+1..j+1.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson product-moment correlation of the paired
// samples. It returns 0 when either sample has zero variance, matching the
// convention used for degenerate FI measurements (all-equal SDC
// probabilities carry no ranking signal).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrTooFewSamples
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank correlation coefficient of the paired
// samples — Pearson correlation applied to fractional ranks, which handles
// ties correctly. This is the statistic the paper reports in Tables 2 and 3.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrTooFewSamples
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// PairwiseMeanSpearman computes Spearman's coefficient for every unordered
// pair of rows and returns the average — the per-benchmark statistic of
// Table 3 (rank-list stability of per-instruction SDC probability across
// inputs). Each row is one input's vector of per-instruction values.
func PairwiseMeanSpearman(rows [][]float64) (float64, error) {
	if len(rows) < 2 {
		return 0, ErrTooFewSamples
	}
	var sum float64
	var count int
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			r, err := Spearman(rows[i], rows[j])
			if err != nil {
				return 0, err
			}
			sum += r
			count++
		}
	}
	return sum / float64(count), nil
}

// z95 is the two-sided 95% standard-normal quantile.
const z95 = 1.959963984540054

// WilsonInterval returns the true bounds of the Wilson score interval for k
// successes in n trials at normal quantile z:
//
//	(k + z²/2)/(n + z²)  ±  z·sqrt(k(n-k)/n + z²/4)/(n + z²)
//
// The interval is centered on the adjusted midpoint, not on p̂ = k/n, which
// is what keeps it inside [0,1] at the boundaries: at k=0 the lower bound is
// exactly 0 and the upper bound is z²/(n+z²); symmetrically at k=n. Both
// bounds always bracket p̂. n <= 0 returns the vacuous interval [0,1] — no
// data constrains nothing.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	nf, kf := float64(n), float64(k)
	z2 := z * z
	center := (kf + z2/2) / (nf + z2)
	half := z * math.Sqrt(kf*(nf-kf)/nf+z2/4) / (nf + z2)
	lo, hi = center-half, center+half
	// At the boundaries the true bound is exactly 0 (resp. 1): the center
	// and half-width are algebraically equal there. Pin the exact value
	// rather than leaving an ulp of floating-point dust, and clamp the
	// interior bounds the same way.
	if k == 0 || lo < 0 {
		lo = 0
	}
	if k == n || hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonInterval95 is WilsonInterval at 95% confidence — the bounds behind
// every reported FI confidence interval in this repository.
func WilsonInterval95(k, n int) (lo, hi float64) {
	return WilsonInterval(k, n, z95)
}

// WilsonMidpoint returns the center of the Wilson score interval,
// (k + z²/2)/(n + z²) — the shrunk proportion estimate the interval is
// symmetric around. Unlike p̂ it is never exactly 0 or 1 for n ≥ 1, which
// makes it the right plug-in for variance estimates p(1-p) on small or
// one-sided samples (a stratum with k=0 still has nonzero estimated
// variance and keeps attracting trials until its interval converges).
func WilsonMidpoint(k, n int, z float64) float64 {
	if n <= 0 {
		return 0.5
	}
	z2 := z * z
	return (float64(k) + z2/2) / (float64(n) + z2)
}

// WilsonCI returns the half-width of the Wilson score interval for k
// successes in n trials at normal quantile z:
//
//	z·sqrt(p(1-p)/n + z²/4n²) / (1 + z²/n)
//
// The half-width is strictly positive for every n ≥ 1 (at k=0 or k=n it is
// z²/2n scaled by the same denominator) and symmetric in k ↔ n-k.
func WilsonCI(k, n int, z float64) float64 {
	if n <= 0 {
		return 0
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	return z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / (1 + z2/nf)
}

// Normalize scales xs into [0,1] by (x-min)/(max-min). Used to turn raw
// per-instruction SDC probabilities into SDC scores (§4.2.3).
//
// Degenerate inputs: when every value equals the same nonzero constant the
// result is uniform ones, not zeros — a flat nonzero SDC probability means
// "every instruction is equally vulnerable", and mapping it to all-zero
// scores would collapse every candidate's fitness to 0 and blind the GA.
// Only an all-zero input (no measured vulnerability at all) normalizes to
// all-zero scores.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		if hi != 0 {
			for i := range out {
				out[i] = 1
			}
		}
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]. Values
// outside the range clamp to the end bins. NaNs are skipped and returned as
// a separate tally rather than binned: int(NaN) is 0 in Go, so the old code
// silently clamped every NaN into bin 0, inventing mass at the low end of
// the distribution. It panics if nbins <= 0 or hi <= lo.
func Histogram(xs []float64, lo, hi float64, nbins int) (counts []int, nan int) {
	if nbins <= 0 {
		panic("stats: Histogram with nbins <= 0")
	}
	if hi <= lo {
		panic("stats: Histogram with hi <= lo")
	}
	counts = make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		if math.IsNaN(x) {
			nan++
			continue
		}
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts, nan
}

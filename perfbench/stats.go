package main

// Burst-robust aggregation. The host this benchmark was built on runs 10–20%
// of identical chunks of work at about twice the CPU time, in bursts of
// 0.3–0.5 s. A mean of wall-clock time moves in direct proportion to the
// bursts a run happens to catch, and a high percentile mostly counts them.
// Every timed end-to-end metric is therefore a median (or a p75 at most):
// per class of identical operations first, then combined across classes by
// geometric mean, so each class weighs the same whatever its size.

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (R's type 7). xs is not modified; an empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classSamples holds timed samples grouped by class: a class is a set of
// identical or same-shaped operations, so its spread is mostly noise.
type classSamples map[string][]float64

func (c classSamples) add(class string, v float64) { c[class] = append(c[class], v) }

// geoClassQuantile is the timed aggregate of every workload: each class's
// q-quantile, combined by geometric mean in class-name order, so the result
// repeats to the bit.
func (c classSamples) geoClassQuantile(q float64) float64 {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	qs := make([]float64, len(names))
	for i, n := range names {
		qs[i] = quantile(c[n], q)
	}
	return geomean(qs)
}

// normalized returns every sample divided by its class's median: how far
// identical operations stray from their typical time, pooled over classes
// whose typical times differ.
func (c classSamples) normalized() []float64 {
	var out []float64
	for _, xs := range c {
		m := median(xs)
		for _, x := range xs {
			out = append(out, x/m)
		}
	}
	return out
}

// tail is the run's p75 aggregate: the geometric mean of class medians
// (p50) scaled by the p75 of the normalized pool. It rests on every sample
// of the run, where a class's own p75 rests on a handful and doubles
// whenever a burst hits a quarter of them. beyond counts the normalized
// samples above that p75.
func (c classSamples) tail(p50 float64) (p75 float64, beyond int) {
	n := c.normalized()
	q := quantile(n, 0.75)
	return p50 * q, countAbove(n, q)
}

func countAbove(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

// minClassSize is the smallest sample count over all classes.
func (c classSamples) minClassSize() int {
	m := 0
	for _, xs := range c {
		if m == 0 || len(xs) < m {
			m = len(xs)
		}
	}
	return m
}

// pyQuartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so steadiness reports match the acceptance rule exactly. It needs
// at least two values.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

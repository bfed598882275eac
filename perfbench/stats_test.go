package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

// TestPyQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestPyQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := pyQuartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("pyQuartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestGeoClassQuantile(t *testing.T) {
	c := classSamples{}
	for _, v := range []float64{1, 2, 100} {
		c.add("a", v)
	}
	for _, v := range []float64{8, 8, 8} {
		c.add("b", v)
	}
	if got := c.geoClassQuantile(0.5); math.Abs(got-4) > 1e-12 {
		t.Errorf("geometric mean of class medians 2 and 8 = %v, want 4", got)
	}
}

func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return math.NaN()
}

// synthetic builds timed samples shaped like each workload's: per-kernel
// times per dynamic instruction that vary 10% over search seeds (pipeline),
// 1000-trial campaigns whose costs span two orders of magnitude with 2%
// jitter (campaign), jobs of 13 classes between 2 and 70 ms with 10% jitter
// (service), and cold set-ups.
type synthetic struct {
	workloads map[string]classSamples
	setups    []float64
}

func makeSynthetic(rng *rand.Rand) *synthetic {
	s := &synthetic{workloads: map[string]classSamples{}}
	add := func(workload string, classes, per int, lo, hi, jitter float64) {
		c := classSamples{}
		for k := 0; k < classes; k++ {
			base := lo * math.Exp(rng.Float64()*math.Log(hi/lo))
			for i := 0; i < per; i++ {
				c.add(fmt.Sprint(k), base*(1+jitter*rng.NormFloat64()))
			}
		}
		s.workloads[workload] = c
	}
	add("pipeline", 10, 27, 5e-9, 2e-8, 0.1)
	add("campaign", 20, 6, 0.005, 0.5, 0.02)
	add("service", 13, 100, 0.002, 0.07, 0.1)
	for i := 0; i < minSetups; i++ {
		s.setups = append(s.setups, 0.01*(1+0.02*rng.NormFloat64()))
	}
	return s
}

// double returns a copy of c with a random 20% of all its samples doubled.
func double(c classSamples, rng *rand.Rand) classSamples {
	type at struct {
		class string
		i     int
	}
	var all []at
	out := classSamples{}
	for name, xs := range c {
		out[name] = append([]float64(nil), xs...)
		for i := range xs {
			all = append(all, at{name, i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].class < all[j].class || all[i].class == all[j].class && all[i].i < all[j].i
	})
	for _, k := range rng.Perm(len(all))[:len(all)/5] {
		out[all[k].class][all[k].i] *= 2
	}
	return out
}

// burst returns a copy with a random 20% of each workload's samples and of
// the set-ups doubled, as the host's bursts double the CPU time of 10–20% of
// identical chunks of work.
func (s *synthetic) burst(rng *rand.Rand) *synthetic {
	b := &synthetic{workloads: map[string]classSamples{}}
	for _, w := range []string{"pipeline", "campaign", "service"} {
		b.workloads[w] = double(s.workloads[w], rng)
	}
	b.setups = double(classSamples{"setup": s.setups}, rng)["setup"]
	return b
}

// aggregates computes every timed end-to-end metric as the workloads do.
func (s *synthetic) aggregates() map[string]float64 {
	out := map[string]float64{"setup_s": median(s.setups)}
	for w, c := range s.workloads {
		p50 := c.geoClassQuantile(0.5)
		p75, _ := c.tail(p50)
		out["latency_p50_ms/"+w] = p50
		out["latency_p75_ms/"+w] = p75
	}
	return out
}

// wallMean is the aggregate an earlier benchmark used: the mean of every
// campaign's wall time.
func (s *synthetic) wallMean() float64 {
	var all []float64
	for _, xs := range s.workloads["campaign"] {
		all = append(all, xs...)
	}
	return mean(all)
}

// TestBurstRobustAggregates doubles a random 20% of synthetic samples and
// checks that every timed end-to-end aggregate moves less than its bound in
// at least 95 of 100 trials, while a mean of wall time over the same
// samples typically moves more than the latency bound.
func TestBurstRobustAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 100
	within := map[string]int{}
	shifts := map[string][]float64{}
	var meanShifts []float64
	for i := 0; i < trials; i++ {
		base := makeSynthetic(rng)
		hit := base.burst(rng)
		ba, ha := base.aggregates(), hit.aggregates()
		for name, v := range ba {
			metric, _, _ := strings.Cut(name, "/")
			shifts[name] = append(shifts[name], (ha[name]-v)/v)
			if (ha[name]-v)/v < boundOf(metric) {
				within[name]++
			}
		}
		meanShifts = append(meanShifts, (hit.wallMean()-base.wallMean())/base.wallMean())
	}
	names := make([]string, 0, len(shifts))
	for name := range shifts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-24s median shift %+.3f", name, median(shifts[name]))
		if within[name] < trials*95/100 {
			t.Errorf("%s moved less than its bound in only %d of %d burst trials", name, within[name], trials)
		}
	}
	if m, bound := median(meanShifts), boundOf("latency_p50_ms"); m <= bound {
		t.Errorf("mean of wall time moved by a median %.3f, within the latency bound %v: the test no longer separates robust from fragile aggregates", m, bound)
	}
}

// TestTail checks the p75 aggregate against classes with known spread.
func TestTail(t *testing.T) {
	c := classSamples{}
	for i := 1; i <= 4; i++ {
		c.add("a", float64(i))
		c.add("b", float64(10*i))
	}
	p50 := c.geoClassQuantile(0.5)
	p75, beyond := c.tail(p50)
	// Normalized pool: 1/2.5 … 4/2.5 twice; its p75 is 3.25/2.5.
	if want := p50 * 3.25 / 2.5; math.Abs(p75-want) > 1e-12 || beyond != 2 {
		t.Errorf("tail = %v, %d beyond; want %v, 2", p75, beyond, want)
	}
}

package campaign

import "math"

// Estimate is a measured whole-program SDC probability with its 95%
// interval — the one number the paper reports per input (§3.1.3–3.1.4).
// Every estimator returns it: a flat campaign (Counts.Estimate), an
// adaptive stratified campaign and a compositional profile estimate (both
// through Compose).
type Estimate struct {
	// Counts pools every trial behind the estimate, for cost accounting and
	// outcome breakdowns. A stratified estimate samples its parts
	// unequally, so the pooled ratio Counts.SDCProbability() is
	// allocation-weighted; the rate is P.
	Counts
	// P is the SDC probability; Lo and Hi its 95% bounds, with
	// 0 ≤ Lo ≤ P ≤ Hi ≤ 1.
	P, Lo, Hi float64
}

// SDCProbability returns the estimate's rate P, shadowing the pooled
// trial ratio of the embedded Counts.
func (e Estimate) SDCProbability() float64 { return e.P }

// SDCInterval returns the estimate's 95% bounds, shadowing the pooled
// Wilson bounds of the embedded Counts.
func (e Estimate) SDCInterval() (lo, hi float64) { return e.Lo, e.Hi }

// Estimate is the flat campaign's estimate: the trial ratio with its
// Wilson 95% interval.
func (c Counts) Estimate() Estimate {
	lo, hi := c.SDCInterval()
	return Estimate{Counts: c, P: c.SDCProbability(), Lo: lo, Hi: hi}
}

// Part is one stratum of a stratified estimate: the fraction of the
// dynamic instruction stream it covers and the tally of the trials that
// sampled it uniformly.
type Part struct {
	Weight float64
	Counts Counts
}

// Compose is the stratified estimate over independently sampled parts —
// adaptive strata and compositional segments alike. P is the unbiased
// Σ w·p̂. The interval composes the per-part Wilson intervals about their
// midpoints, Σ w·mid ± sqrt(Σ (w·hw)²) (the normal-approximation
// quadrature for independent strata), widened to bracket P, since p̂ can
// sit anywhere inside its part's interval, and clamped to [0, 1]. Counts
// merge in part order. With no trial in any part nothing was measured: P
// is 0 and the interval [0, 1].
func Compose(parts []Part) Estimate {
	var e Estimate
	var center, variance float64
	for _, pt := range parts {
		lo, hi := pt.Counts.SDCInterval()
		e.P += pt.Weight * pt.Counts.SDCProbability()
		center += pt.Weight * (lo + hi) / 2
		wh := pt.Weight * (hi - lo) / 2
		variance += wh * wh
		e.Counts.Merge(pt.Counts)
	}
	if e.Trials == 0 {
		return Estimate{Counts: e.Counts, Hi: 1}
	}
	half := math.Sqrt(variance)
	e.Lo = math.Max(0, math.Min(center-half, e.P))
	e.Hi = math.Min(1, math.Max(center+half, e.P))
	return e
}

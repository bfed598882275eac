// This file implements the adaptive stratified FI campaign runner: the
// two-level SDC-rate estimation of Hari et al. applied to whole-program
// campaigns. Instead of spending a flat 1000 trials sampling the dynamic
// instruction stream uniformly, the injection space is partitioned into
// strata of static instructions (heat-ranked when sensitivity scores are
// available, dyn-count-ranked otherwise), trial rounds are allocated to
// strata in proportion to their estimated contribution to the composed
// variance (Neyman allocation), and a stratum stops drawing trials once its
// Wilson score interval is tight enough. The per-stratum estimates compose
// into a whole-program SDC rate with an honest confidence interval, usually
// at a large fraction of the flat campaign's trials saved.
//
// Determinism contract (same as every campaign runner in this package):
// each trial's randomness derives only from (Seed, stratum index, per-
// stratum trial index), rounds execute their trials in stratum order, and
// outcomes fold back in that same order — so the result is bit-identical
// for every worker count and round runner, including the serial schedule.
package campaign

import (
	"context"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Adaptive campaign defaults. The CI target matches the accuracy of the
// flat 1000-trial campaigns the paper sizes: their 95% error bars top out
// at ±3.10% (worst case p≈0.5), so stopping at a composed half-width of
// 0.035 delivers equivalent precision — tighter for most benchmarks, since
// stratification shrinks the composed width below the flat-campaign width
// at the same spend.
const (
	// DefaultCITarget is the composed 95% half-width at which the campaign
	// stops (and the per-stratum half-width at which a stratum stops).
	DefaultCITarget = 0.035
	// DefaultMinTrialsPerStratum seeds every stratum before any interval is
	// trusted — the paper's per-representative count (§4.2.3).
	DefaultMinTrialsPerStratum = 30
	// DefaultAdaptiveStrata is the stratum count (clamped to the number of
	// executed static instructions).
	DefaultAdaptiveStrata = 8
	// DefaultAdaptiveRound is the trial budget allocated per adaptive round
	// after the seeding round.
	DefaultAdaptiveRound = 100
	// DefaultAdaptiveMaxTrials caps the total spend at the paper's flat
	// campaign size, so adaptive estimation never costs more than the
	// campaign it replaces.
	DefaultAdaptiveMaxTrials = 1000
)

// AdaptiveOptions configures an adaptive stratified campaign.
type AdaptiveOptions struct {
	// Workers fans each round's trials across goroutines (<= 0: GOMAXPROCS).
	Workers int
	// Seed derives each trial's private RNG stream from
	// (Seed, stratum, trial index).
	Seed uint64
	// Detector optionally models protection (see ParallelOptions.Detector).
	Detector func(staticID int) bool
	// CITarget is the 95% Wilson half-width at which estimation stops
	// (<= 0: DefaultCITarget). A stratum stops drawing once its own interval
	// half-width is below the target; the campaign stops once the composed
	// interval half-width is.
	CITarget float64
	// MaxTrials bounds the total trial spend (<= 0:
	// DefaultAdaptiveMaxTrials). With MaxTrials equal to a flat campaign's
	// size, the adaptive run can only match or undercut the flat cost.
	MaxTrials int
	// Scores optionally supplies per-static-instruction SDC sensitivity
	// scores (the §4.2.3 distribution); strata are then ranked by heat —
	// score × dynamic-execution fraction, the telemetry.HeatTopK ordering.
	// Nil falls back to ranking by dynamic execution count alone.
	Scores []float64
	// Ctx, when non-nil, cancels the campaign cooperatively: the round loop
	// stops before its next round once ctx is canceled and the result holds
	// the tallies of the rounds that completed (with honestly wider
	// intervals). Mid-round trials that cancellation skipped are excluded
	// from the strata tallies, so completed-trial statistics stay exact.
	Ctx context.Context
	// Runner, when non-nil, replaces RunPlans as the round executor — the
	// sharding hook. Any runner honoring the RunPlans contract (results
	// depend only on the plans and per-trial RNG streams, returned in plan
	// order) keeps adaptive results bit-identical to the in-process run.
	Runner TrialRunner
	// Model selects the fault model strata sample from (see
	// ParallelOptions.Model). Nil is the single-bit-flip default, whose
	// plans draw their bit eagerly; other models ride inside the plans and
	// corrupt at injection time from the same per-trial stream.
	Model fault.Model
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.CITarget <= 0 {
		o.CITarget = DefaultCITarget
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = DefaultAdaptiveMaxTrials
	}
	return o
}

// Stratum is one injection-space partition of an adaptive campaign and its
// running measurement.
type Stratum struct {
	// IDs are the stratum's static instructions, ascending.
	IDs []int
	// ExecCount is the stratum's dynamic occurrence total under the golden
	// run; Weight is its fraction of the whole run (ExecCount / DynCount).
	ExecCount int64
	Weight    float64
	// Counts tallies the stratum's trials.
	Counts Counts
	// Lo and Hi are the true 95% Wilson bounds of the stratum's SDC rate.
	Lo, Hi float64
	// Converged records that the stratum's interval half-width reached the
	// target and it stopped drawing trials.
	Converged bool

	// cum[i] is the cumulative ExecCount through IDs[i], the stratum's
	// SampleOccurrence table.
	cum []int64
}

// halfWidth is the stratum's current Wilson half-width.
func (st *Stratum) halfWidth() float64 { return (st.Hi - st.Lo) / 2 }

// refresh recomputes the Wilson bounds from the tally.
func (st *Stratum) refresh() {
	st.Lo, st.Hi = stats.WilsonInterval95(st.Counts.SDC, st.Counts.Trials)
}

// SampleOccurrence draws one static-mode plan from a cumulative-count
// table — ids lists static instructions and cum[i] their golden execution
// total through ids[i] — so the target is a uniform element of the table's
// slice of the dynamic instruction stream. With a nil model the fault is a
// uniform bit of the target's width, drawn eagerly from the same stream;
// any other model rides inside the plan and corrupts at injection time.
// Adaptive strata and compositional segments both sample through it.
func SampleOccurrence(rng *xrand.RNG, p *interp.Program, ids []int, cum []int64, m fault.Model) fault.Plan {
	r := rng.Int63n(cum[len(cum)-1])
	i := sort.Search(len(cum), func(j int) bool { return cum[j] > r })
	var before int64
	if i > 0 {
		before = cum[i-1]
	}
	plan := fault.Plan{Mode: fault.ModeStatic, StaticID: ids[i], Occurrence: r - before + 1}
	if m != nil {
		plan.Model = m
	} else {
		plan.Bit = fault.RandomBit(rng, p.InstrType(ids[i]))
	}
	return plan
}

// AdaptiveResult is the outcome of an adaptive stratified campaign.
type AdaptiveResult struct {
	// Strata holds the per-stratum measurements, in rank order.
	Strata []Stratum
	// Counts pools every executed trial's outcome. Its raw SDCProbability is
	// allocation-weighted (adaptive allocation oversamples high-variance
	// strata), so the whole-program rate is Estimate, not the pooled ratio;
	// Counts exists for trial/cost accounting and outcome breakdowns.
	Counts Counts
	// Estimate is the composed whole-program SDC rate Σ_s w_s·p̂_s — the
	// unbiased stratified estimator.
	Estimate float64
	// Lo and Hi are the honest composed 95% bounds: per-stratum Wilson
	// intervals composed about their midpoints with quadrature half-widths
	// sqrt(Σ (w_s·hw_s)²), widened (rarely) to bracket Estimate, clamped to
	// [0,1].
	Lo, Hi float64
	// CITarget, MaxTrials and Rounds record the run's configuration and
	// round count; TrialsSaved derives from MaxTrials.
	CITarget  float64
	MaxTrials int
	Rounds    int
}

// Width is the composed interval's full width.
func (r *AdaptiveResult) Width() float64 { return r.Hi - r.Lo }

// TrialsSaved is how many trials the campaign left unspent versus the flat
// MaxTrials-sized campaign it replaces.
func (r *AdaptiveResult) TrialsSaved() int {
	if s := r.MaxTrials - r.Counts.Trials; s > 0 {
		return s
	}
	return 0
}

// StrataConverged counts strata whose own interval reached the target.
func (r *AdaptiveResult) StrataConverged() int {
	n := 0
	for i := range r.Strata {
		if r.Strata[i].Converged {
			n++
		}
	}
	return n
}

// compose recomputes the composed estimate and interval from the per-stratum
// Wilson bounds. The point estimate is the unbiased Σ w_s·p̂_s; the interval
// is centered on the composed Wilson midpoints (exactly as a single Wilson
// interval is centered on its adjusted midpoint, not on p̂) with half-width
// sqrt(Σ (w_s·hw_s)²) — the normal-approximation quadrature for independent
// strata. Since p̂_s can sit anywhere inside its stratum interval, the
// quadrature interval is widened to bracket the point estimate when the two
// disagree, keeping Lo ≤ Estimate ≤ Hi an invariant.
func (r *AdaptiveResult) compose() {
	var est, center, variance float64
	for i := range r.Strata {
		st := &r.Strata[i]
		est += st.Weight * st.Counts.SDCProbability()
		center += st.Weight * (st.Lo + st.Hi) / 2
		wh := st.Weight * st.halfWidth()
		variance += wh * wh
	}
	half := math.Sqrt(variance)
	r.Estimate = est
	r.Lo = math.Max(0, math.Min(center-half, est))
	r.Hi = math.Min(1, math.Max(center+half, est))
}

// BuildStrata partitions the golden run's executed static instructions into
// at most k strata. Instructions are ranked by heat — scores[i] × dynamic-
// execution fraction, telemetry.HeatTopK's ordering (ties by ascending id)
// — or by execution count alone when scores is nil, then the ranked list is
// split into contiguous buckets of roughly equal dynamic weight. Ranking
// groups instructions with similar SDC behaviour, which is what shrinks the
// within-stratum variance the estimator exploits; equal dynamic weight keeps
// every stratum's contribution to the composed variance comparable. The
// partition is a pure function of (golden, scores, k).
func BuildStrata(g *Golden, scores []float64, k int) []Stratum {
	var ids []rankedInstr
	for id, n := range g.InstrCounts {
		if n <= 0 {
			continue
		}
		h := float64(n) / float64(g.DynCount)
		if scores != nil && id < len(scores) {
			h *= scores[id]
		}
		ids = append(ids, rankedInstr{id: id, heat: h})
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].heat != ids[b].heat {
			return ids[a].heat > ids[b].heat
		}
		return ids[a].id < ids[b].id
	})
	if k > len(ids) {
		k = len(ids)
	}
	if k < 1 {
		k = 1
	}
	// Walk the ranked list, closing a bucket when its share of the dynamic
	// weight is met (always leaving enough instructions for the remaining
	// buckets).
	strata := make([]Stratum, 0, k)
	var cum int64
	start := 0
	for i, r := range ids {
		cum += g.InstrCounts[r.id]
		remainingBuckets := k - len(strata) - 1
		boundary := float64(len(strata)+1) * float64(g.DynCount) / float64(k)
		if (float64(cum) >= boundary && len(ids)-i-1 >= remainingBuckets) || len(ids)-i-1 == remainingBuckets {
			strata = append(strata, newStratum(g, ids[start:i+1]))
			start = i + 1
			if len(strata) == k {
				break
			}
		}
	}
	if start < len(ids) {
		strata = append(strata, newStratum(g, ids[start:]))
	}
	return strata
}

type rankedInstr struct {
	id   int
	heat float64
}

func newStratum(g *Golden, members []rankedInstr) Stratum {
	st := Stratum{IDs: make([]int, len(members))}
	for i, m := range members {
		st.IDs[i] = m.id
	}
	sort.Ints(st.IDs)
	st.cum = make([]int64, len(st.IDs))
	for i, id := range st.IDs {
		st.ExecCount += g.InstrCounts[id]
		st.cum[i] = st.ExecCount
	}
	st.Weight = float64(st.ExecCount) / float64(g.DynCount)
	return st
}

// OverallAdaptive measures the whole-program SDC rate with the adaptive
// stratified campaign over DefaultAdaptiveStrata strata. It draws
// DefaultMinTrialsPerStratum seed trials per stratum, then allocates
// DefaultAdaptiveRound-sized rounds to unconverged strata by Neyman
// allocation (∝ w_s·sqrt(m_s(1-m_s)) on the running Wilson midpoint m_s),
// until every stratum's Wilson half-width — or the composed half-width — is
// below CITarget, or MaxTrials is spent. Results are bit-identical for
// every Workers and Runner; allocation decisions depend only on the
// deterministic tallies.
func OverallAdaptive(p *interp.Program, g *Golden, opts AdaptiveOptions) *AdaptiveResult {
	opts = opts.withDefaults()
	res := &AdaptiveResult{
		Strata:    BuildStrata(g, opts.Scores, DefaultAdaptiveStrata),
		CITarget:  opts.CITarget,
		MaxTrials: opts.MaxTrials,
	}
	if len(res.Strata) == 0 {
		res.Lo, res.Hi = 0, 1
		return res
	}
	// Seed round: every stratum gets the minimum, scaled down if the floor
	// alone would blow the budget.
	seed := DefaultMinTrialsPerStratum
	if seed*len(res.Strata) > opts.MaxTrials {
		seed = opts.MaxTrials / len(res.Strata)
		if seed < 1 {
			seed = 1
		}
	}
	alloc := make([]int, len(res.Strata))
	for i := range alloc {
		alloc[i] = seed
	}
	next := make([]int, len(res.Strata))
	for {
		if ctxCanceled(opts.Ctx) {
			break
		}
		runAdaptiveRound(p, g, res.Strata, alloc, next, opts)
		res.Rounds++
		total := 0
		allConverged := true
		for i := range res.Strata {
			st := &res.Strata[i]
			st.refresh()
			st.Converged = st.halfWidth() <= opts.CITarget
			if !st.Converged {
				allConverged = false
			}
			total += st.Counts.Trials
		}
		res.compose()
		if allConverged || (res.Hi-res.Lo)/2 <= opts.CITarget || total >= opts.MaxTrials {
			break
		}
		alloc = allocateRound(res.Strata, minInt(DefaultAdaptiveRound, opts.MaxTrials-total))
		if sumInt(alloc) == 0 {
			break
		}
	}
	// A canceled run may break before any round refreshed the intervals;
	// compose is idempotent, so recomputing keeps Lo/Hi/Estimate honest.
	if ctxCanceled(opts.Ctx) {
		for i := range res.Strata {
			res.Strata[i].refresh()
		}
		res.compose()
	}
	// Pool the tally in stratum order (deterministic fold).
	for i := range res.Strata {
		res.Counts.Merge(res.Strata[i].Counts)
	}
	return res
}

// allocateRound apportions a round budget among the unconverged strata in
// proportion to w_s·sqrt(m_s(1-m_s)) — Neyman allocation on the running
// variance estimate, with the Wilson midpoint m_s as the plug-in proportion
// so an all-benign stratum keeps a nonzero share until its interval
// converges. Apportionment is largest-remainder with ties broken by stratum
// index, so the allocation is deterministic.
func allocateRound(strata []Stratum, budget int) []int {
	alloc := make([]int, len(strata))
	if budget <= 0 {
		return alloc
	}
	need := make([]float64, len(strata))
	var total float64
	for i := range strata {
		st := &strata[i]
		if st.Converged {
			continue
		}
		m := stats.WilsonMidpoint(st.Counts.SDC, st.Counts.Trials, 1.959963984540054)
		need[i] = st.Weight * math.Sqrt(m*(1-m))
		total += need[i]
	}
	if total == 0 {
		return alloc
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, 0, len(strata))
	given := 0
	for i := range strata {
		if need[i] == 0 {
			continue
		}
		share := float64(budget) * need[i] / total
		alloc[i] = int(share)
		given += alloc[i]
		rems = append(rems, rem{i: i, frac: share - float64(alloc[i])})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].i < rems[b].i
	})
	for _, r := range rems {
		if given >= budget {
			break
		}
		alloc[r.i]++
		given++
	}
	return alloc
}

// runAdaptiveRound executes alloc[s] new trials per stratum. Trials are laid
// out in stratum order, each on a private RNG stream keyed by
// (seed, stratum, per-stratum trial index), executed through the round
// runner (RunPlans unless opts.Runner shards the round), and folded back in
// layout order — bit-identical for every worker count and conforming
// runner. Trials the runner skipped (cancellation) are excluded
// from the tallies.
func runAdaptiveRound(p *interp.Program, g *Golden, strata []Stratum, alloc, next []int, opts AdaptiveOptions) {
	type ref struct{ s, t int }
	var refs []ref
	for s, n := range alloc {
		for j := 0; j < n; j++ {
			refs = append(refs, ref{s: s, t: next[s] + j})
		}
	}
	if len(refs) == 0 {
		return
	}
	plans := make([]fault.Plan, len(refs))
	rngs := make([]*xrand.RNG, len(refs))
	for i, rf := range refs {
		rng := parallel.DeriveRNG(opts.Seed, uint64(rf.s), uint64(rf.t))
		st := &strata[rf.s]
		plans[i] = SampleOccurrence(rng, p, st.IDs, st.cum, opts.Model)
		rngs[i] = rng
	}
	runner := opts.Runner
	if runner == nil {
		runner = RunPlans
	}
	outs := runner(p, g, plans, func(i int) *xrand.RNG { return rngs[i] }, ParallelOptions{
		Workers:  opts.Workers,
		Detector: opts.Detector,
		Ctx:      opts.Ctx,
	})
	for i, rf := range refs {
		if outs[i].Skipped {
			continue
		}
		strata[rf.s].Counts.Add(outs[i].Outcome)
		strata[rf.s].Counts.DynInstrs += outs[i].Dyn
	}
	for s, n := range alloc {
		next[s] += n
	}
}

// EmitAdaptiveTelemetry folds an adaptive campaign's outcome into a
// telemetry stream: one trace event plus fi.adaptive.* gauges (exported by
// /metrics as peppax_fi_adaptive_*) recording the trials saved, strata
// converged and composed CI width. Every value derives from deterministic
// tallies, so traces stay byte-identical across worker counts. No-op on a
// nil stream or result.
func EmitAdaptiveTelemetry(tr *telemetry.Stream, event string, r *AdaptiveResult) {
	if tr == nil || r == nil {
		return
	}
	tr.Gauge("fi.adaptive.trials", int64(r.Counts.Trials))
	tr.Gauge("fi.adaptive.trials_saved", int64(r.TrialsSaved()))
	tr.Gauge("fi.adaptive.strata", int64(len(r.Strata)))
	tr.Gauge("fi.adaptive.strata_converged", int64(r.StrataConverged()))
	tr.GaugeF("fi.adaptive.ci_width", r.Width())
	tr.GaugeF("fi.adaptive.estimate", r.Estimate)
	tr.Emit(event, append([]telemetry.Field{
		telemetry.F("strata", len(r.Strata)),
		telemetry.F("converged", r.StrataConverged()),
		telemetry.F("rounds", r.Rounds),
		telemetry.F("max_trials", r.MaxTrials),
		telemetry.F("saved", r.TrialsSaved()),
		telemetry.F("ci_target", r.CITarget),
		telemetry.F("estimate", r.Estimate),
		telemetry.F("lo", r.Lo),
		telemetry.F("hi", r.Hi),
	}, r.Counts.Fields()...)...)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sumInt(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

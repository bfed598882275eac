package compose

import (
	"context"
	"math"
	"sync"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

const (
	// DefaultTrials is the total FI-trial budget of one full profile
	// measurement pass over a program (allocated across executed segments
	// by dynamic weight). Sized so a composed estimate's sampling error is
	// comfortably inside a 1000-trial direct campaign's Wilson interval.
	DefaultTrials = 1600
	// DefaultMinSegmentTrials floors each executed segment's trial count so
	// light segments still get a usable Wilson interval.
	DefaultMinSegmentTrials = 24
	// DefaultThreshold is the re-measurement trigger: a cached profile is
	// reused only while the segment's dynamic fraction stays within this
	// absolute distance of the fraction it was measured under.
	DefaultThreshold = 0.05
	// DefaultFaultModel names the substrate's single-bit-flip model in
	// cache keys, so future fault models cannot alias today's profiles.
	DefaultFaultModel = "bitflip"
)

// Profile is one segment's error-injection profile: the conditional SDC
// rate given that a fault lands on a uniform dynamic occurrence of the
// segment, with its 95% Wilson interval, plus the dynamic fraction the
// segment held in the golden run the profile was measured under (the
// staleness signal for reuse).
type Profile struct {
	Segment string
	Counts  campaign.Counts
	// P is the conditional SDC probability; Lo and Hi its Wilson 95%
	// bounds.
	P, Lo, Hi float64
	// Frac is the segment's dynamic-execution fraction at measurement
	// time.
	Frac float64
	// Mix is the normalized within-segment instruction mix at measurement
	// time, indexed along the segment's Instrs. The conditional rate P is
	// only transportable to inputs whose mix stays close (FastFlip's
	// cross-input stability, the paper's Table 3), so mix drift is the
	// second re-measurement trigger alongside Frac drift.
	Mix []float64
	// Dyn is the golden run length the profile was measured under. In
	// iterative kernels the conditional rate depends on WHEN in the run a
	// fault lands (early faults get corrected by later iterations), which
	// neither Frac nor Mix can see — both are invariant when every loop
	// scales together — so relative run-length drift is the third trigger.
	Dyn int64
	// Epoch counts how many times this estimator lineage re-measured the
	// segment; it feeds the measurement RNG streams so each re-measurement
	// draws fresh, deterministic plans.
	Epoch int
}

// Cache is a concurrency-safe profile store keyed by (program hash,
// segment, fault model). It may be shared across estimators — keys from
// different programs are disjoint by construction — and bounded with a cap
// for long-running servers.
type Cache struct {
	memo parallel.Memo[*Profile]
}

// NewCache returns a cache bounded to capEntries profiles (<= 0:
// unbounded). Eviction is least-recently-requested and deterministic for a
// fixed request sequence.
func NewCache(capEntries int) *Cache {
	c := &Cache{}
	c.memo.SetCap(capEntries)
	return c
}

// Stats exposes the underlying memo tallies (hits, misses, evictions,
// current size).
func (c *Cache) Stats() parallel.MemoStats { return c.memo.Stats() }

// Len reports the current profile count.
func (c *Cache) Len() int { return c.memo.Len() }

// Options configures an Estimator.
type Options struct {
	// Trials is the total trial budget of a full measurement pass
	// (<= 0: DefaultTrials).
	Trials int
	// MinSegmentTrials floors per-segment trial counts
	// (<= 0: DefaultMinSegmentTrials).
	MinSegmentTrials int
	// Threshold is the re-measurement trigger: a cached profile is stale
	// once the segment's dynamic fraction moved more than Threshold from
	// the measured one, the within-segment instruction mix moved more
	// than Threshold in total-variation distance, or the golden run
	// length moved more than Threshold relatively (< 0: never re-measure;
	// 0: DefaultThreshold).
	Threshold float64
	// Workers fans measurement trials across goroutines exactly as
	// campaign.ParallelOptions does; estimates are bit-identical for every
	// setting.
	Workers int
	// Seed derives every measurement trial's private RNG stream via
	// (Seed, segment index, epoch, trial index).
	Seed uint64
	// FaultModel names the fault model in cache keys
	// ("" = DefaultFaultModel, or Model.Name() when Model is set).
	FaultModel string
	// Model selects the fault model measurement trials corrupt with. Nil is
	// the single-bit-flip default, byte-identical to the historical eager
	// per-plan bit draw. Non-nil models ride inside the sampled plans, so
	// any TrialRunner honoring the RunPlans contract stays bit-identical.
	Model fault.Model
	// Trace, when non-nil, receives compose.profile events per measured
	// segment and compose.* gauges per estimate. Event payloads are
	// schedule-independent; the caller advances the stream clock.
	Trace *telemetry.Stream
	// Ctx, when non-nil, cancels estimation cooperatively BETWEEN segment
	// measurements: once canceled, EstimateGolden stops before its next
	// segment and composes only the segments already handled (the rest
	// report Source "skipped"). The segment measurement in flight always
	// completes — a partial profile must never be cached, since the memo
	// would serve it to every later estimate.
	Ctx context.Context
	// Runner, when non-nil, replaces campaign.RunPlans as the measurement
	// executor — the sharding hook. Any runner honoring the RunPlans
	// contract keeps profiles (and thus estimates) bit-identical to the
	// in-process run.
	Runner campaign.TrialRunner
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = DefaultTrials
	}
	if o.MinSegmentTrials <= 0 {
		o.MinSegmentTrials = DefaultMinSegmentTrials
	}
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.Model != nil {
		// The model owns the key segment so profiles measured under
		// different corruption patterns can never alias.
		o.FaultModel = o.Model.Name()
	}
	if o.FaultModel == "" {
		o.FaultModel = DefaultFaultModel
	}
	return o
}

// Stats tallies an estimator's cache interactions and measurement spend.
type Stats struct {
	// Hits counts segment lookups satisfied by a reusable cached profile;
	// Misses counts first measurements; Remeasured counts cached profiles
	// invalidated by fraction drift and measured again.
	Hits, Misses, Remeasured int64
	// Composed counts completed whole-program estimates.
	Composed int64
	// MeasureTrials and MeasureDyn total the FI trials and dynamic
	// instructions spent measuring profiles (reuse spends neither).
	MeasureTrials int64
	MeasureDyn    int64
}

// Estimator composes cached per-segment profiles into whole-program SDC
// estimates for one program. Estimates are serialized internally;
// parallelism lives inside each measurement pass, not across estimates, so
// epoch bookkeeping and cache traffic stay deterministic.
type Estimator struct {
	p     *interp.Program
	part  *Partition
	cache *Cache
	opts  Options

	mu    sync.Mutex
	epoch []int
	stats Stats
}

// NewEstimator builds an estimator for p over cache (nil: a private
// unbounded cache).
func NewEstimator(p *interp.Program, cache *Cache, opts Options) *Estimator {
	if cache == nil {
		cache = NewCache(0)
	}
	part := NewPartition(p)
	return &Estimator{
		p:     p,
		part:  part,
		cache: cache,
		opts:  opts.withDefaults(),
		epoch: make([]int, len(part.Segments)),
	}
}

// Partition returns the estimator's static partition.
func (e *Estimator) Partition() *Partition { return e.part }

// Stats returns the estimator's tallies so far.
func (e *Estimator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SegmentEstimate is one segment's contribution to an Estimate.
type SegmentEstimate struct {
	Segment string
	// Weight is the segment's dynamic fraction under the estimated input
	// (0 for segments the input never executes).
	Weight float64
	// P, Lo, Hi are the profile's conditional SDC rate and Wilson bounds.
	P, Lo, Hi float64
	Trials    int
	// Source records how the profile was obtained for this estimate:
	// "cached", "measured", "remeasured", or "skipped" (zero weight).
	Source string
}

// Estimate is a composed whole-program SDC estimate for one input.
type Estimate struct {
	// SDC is the composed estimate Σ_s w_s·p̂_s; faults on dynamic
	// instructions outside every profiled segment (non-injectable sites)
	// contribute zero, exactly as in the stratified campaign estimator.
	SDC float64
	// Lo and Hi are the honest composed 95% bounds: per-segment Wilson
	// intervals composed about their midpoints with quadrature half-widths
	// sqrt(Σ (w_s·hw_s)²), widened (rarely) to bracket SDC, clamped to
	// [0,1] — the same rule campaign.AdaptiveResult uses.
	Lo, Hi float64
	// Segments lists every partition segment in partition order, including
	// zero-weight ones.
	Segments []SegmentEstimate
	// Counts pools the trials of every profile the estimate used,
	// including cached ones. Like the adaptive campaign's pooled counts it
	// is allocation-weighted — use SDC, not Counts.SDCProbability(), for
	// the rate — and exists for outcome breakdowns.
	Counts campaign.Counts
	// Reused, Measured and Remeasured count this estimate's segment
	// sources; MeasureTrials and MeasureDyn are the FI spend THIS call
	// added (zero on exact reuse), which is what budget accounting should
	// charge.
	Reused, Measured, Remeasured int
	MeasureTrials                int
	MeasureDyn                   int64
}

// EstimateGolden composes the whole-program SDC estimate for the input g
// was profiled from. Cached profiles are reused when the segment's dynamic
// fraction is within Threshold of the profiled one; drifted segments are
// re-measured on g. The result depends only on (program, cache state, g,
// Seed) — never on Workers or Runner — so identical mixes against an
// unchanged cache return bit-identical estimates.
func (e *Estimator) EstimateGolden(g *campaign.Golden) *Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()

	est := &Estimate{Segments: make([]SegmentEstimate, len(e.part.Segments))}
	var center, variance float64
	for si := range e.part.Segments {
		seg := &e.part.Segments[si]
		se := &est.Segments[si]
		se.Segment = seg.Name

		if ctx := e.opts.Ctx; ctx != nil && ctx.Err() != nil {
			// Canceled between segments: the remaining ones stay "skipped"
			// and the composition covers only the work already done.
			se.Source = "skipped"
			continue
		}

		var segDyn int64
		for _, id := range seg.Instrs {
			if id < len(g.InstrCounts) {
				segDyn += g.InstrCounts[id]
			}
		}
		if segDyn == 0 || g.DynCount == 0 {
			se.Source = "skipped"
			continue
		}
		w := float64(segDyn) / float64(g.DynCount)
		se.Weight = w
		mix := make([]float64, len(seg.Instrs))
		for i, id := range seg.Instrs {
			if id < len(g.InstrCounts) {
				mix[i] = float64(g.InstrCounts[id]) / float64(segDyn)
			}
		}

		key := e.key(seg.Name)
		computed := false
		compute := func() (*Profile, error) {
			computed = true
			return e.measure(g, si, seg, segDyn, w, mix), nil
		}
		prof, _ := e.cache.memo.Get(key, compute)
		if !computed && e.stale(prof, w, mix, g.DynCount) {
			// Drifted past the threshold: invalidate and measure again on
			// the current golden, on fresh (deterministic) RNG streams.
			e.cache.memo.Delete(key)
			e.epoch[si]++
			prof, _ = e.cache.memo.Get(key, compute)
			se.Source = "remeasured"
			est.Remeasured++
			e.stats.Remeasured++
		} else if computed {
			se.Source = "measured"
			est.Measured++
			e.stats.Misses++
		} else {
			se.Source = "cached"
			est.Reused++
			e.stats.Hits++
		}
		if computed {
			est.MeasureTrials += prof.Counts.Trials
			est.MeasureDyn += prof.Counts.DynInstrs
		}

		se.P, se.Lo, se.Hi, se.Trials = prof.P, prof.Lo, prof.Hi, prof.Counts.Trials
		est.Counts.Trials += prof.Counts.Trials
		est.Counts.SDC += prof.Counts.SDC
		est.Counts.Crash += prof.Counts.Crash
		est.Counts.Hang += prof.Counts.Hang
		est.Counts.Benign += prof.Counts.Benign
		est.Counts.Detected += prof.Counts.Detected
		est.Counts.DynInstrs += prof.Counts.DynInstrs

		est.SDC += w * prof.P
		center += w * (prof.Lo + prof.Hi) / 2
		wh := w * (prof.Hi - prof.Lo) / 2
		variance += wh * wh
	}
	half := math.Sqrt(variance)
	est.Lo = math.Max(0, math.Min(center-half, est.SDC))
	est.Hi = math.Min(1, math.Max(center+half, est.SDC))

	e.stats.Composed++
	e.stats.MeasureTrials += int64(est.MeasureTrials)
	e.stats.MeasureDyn += est.MeasureDyn
	e.emitGauges()
	return est
}

// key builds a segment's cache key: (program hash, segment, fault model).
func (e *Estimator) key(segment string) string {
	return e.part.Hash + "\x1f" + segment + "\x1f" + e.opts.FaultModel
}

// stale reports whether a cached profile must be re-measured for a segment
// now holding dynamic fraction w, within-segment mix, and golden run
// length dyn. Any drift signal suffices: a fraction shift changes the
// segment's weight in the composition, while a mix shift (total-variation
// distance) or a relative run-length shift changes the conditional rate
// the profile transported.
func (e *Estimator) stale(prof *Profile, w float64, mix []float64, dyn int64) bool {
	if e.opts.Threshold < 0 {
		return false
	}
	if math.Abs(w-prof.Frac) > e.opts.Threshold {
		return true
	}
	if prof.Dyn > 0 && math.Abs(float64(dyn-prof.Dyn))/float64(prof.Dyn) > e.opts.Threshold {
		return true
	}
	var tv float64
	for i := range mix {
		d := mix[i] - prof.Mix[i]
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return tv/2 > e.opts.Threshold
}

// measure runs one segment's profile campaign on g: trials proportional to
// the segment's dynamic weight (floored at MinSegmentTrials), each trial a
// uniform dynamic occurrence of the segment (campaign.SampleOccurrence),
// executed through campaign.RunPlans (or the Runner hook) so worker count
// and sharding cannot change the tally. Caller holds e.mu.
func (e *Estimator) measure(g *campaign.Golden, si int, seg *Segment, segDyn int64, w float64, mix []float64) *Profile {
	trials := e.segmentTrials(g, w)

	// Cumulative execution counts over the segment's executed instructions:
	// the campaign.SampleOccurrence table adaptive strata also draw from.
	var (
		ids []int
		cum []int64
		tot int64
	)
	for _, id := range seg.Instrs {
		if id < len(g.InstrCounts) && g.InstrCounts[id] > 0 {
			tot += g.InstrCounts[id]
			ids = append(ids, id)
			cum = append(cum, tot)
		}
	}

	epoch := e.epoch[si]
	plans := make([]fault.Plan, trials)
	rngs := make([]*xrand.RNG, trials)
	for t := range plans {
		rngs[t] = parallel.DeriveRNG(e.opts.Seed, uint64(si), uint64(epoch), uint64(t))
		plans[t] = campaign.SampleOccurrence(rngs[t], e.p, ids, cum, e.opts.Model)
	}
	// The measurement runs WITHOUT the estimator's Ctx: a canceled runner
	// would return skipped trials, and caching the resulting partial profile
	// would poison every later estimate sharing the memo entry.
	runner := e.opts.Runner
	if runner == nil {
		runner = campaign.RunPlans
	}
	results := runner(e.p, g, plans, func(i int) *xrand.RNG { return rngs[i] }, campaign.ParallelOptions{
		Workers: e.opts.Workers,
	})

	prof := &Profile{Segment: seg.Name, Frac: w, Mix: mix, Dyn: g.DynCount, Epoch: epoch}
	for _, r := range results {
		if r.Skipped {
			continue
		}
		prof.Counts.Add(r.Outcome)
		prof.Counts.DynInstrs += r.Dyn
	}
	prof.P = prof.Counts.SDCProbability()
	prof.Lo, prof.Hi = stats.WilsonInterval95(prof.Counts.SDC, prof.Counts.Trials)
	if tr := e.opts.Trace; tr != nil {
		tr.Emit("compose.profile",
			telemetry.F("segment", seg.Name),
			telemetry.F("epoch", epoch),
			telemetry.F("trials", prof.Counts.Trials),
			telemetry.F("sdc", prof.Counts.SDC),
			telemetry.F("p", prof.P),
			telemetry.F("lo", prof.Lo),
			telemetry.F("hi", prof.Hi),
			telemetry.F("frac", w),
			telemetry.F("dyn", prof.Counts.DynInstrs),
		)
	}
	return prof
}

// segmentTrials allocates a segment's trial count: the pass budget split by
// dynamic weight normalized over the executed fraction of the program, so a
// full pass spends about Options.Trials total regardless of how much of the
// program the input covers.
func (e *Estimator) segmentTrials(g *campaign.Golden, w float64) int {
	var executed int64
	for _, n := range g.InstrCounts {
		executed += n
	}
	cover := float64(executed) / float64(g.DynCount)
	if cover <= 0 {
		cover = 1
	}
	t := int(float64(e.opts.Trials)*w/cover + 0.5)
	if t < e.opts.MinSegmentTrials {
		t = e.opts.MinSegmentTrials
	}
	return t
}

// emitGauges publishes the estimator's running tallies as compose.* gauges
// (peppax_compose_* on /metrics). Caller holds e.mu.
func (e *Estimator) emitGauges() {
	tr := e.opts.Trace
	if tr == nil {
		return
	}
	tr.Gauge("compose.hits", e.stats.Hits)
	tr.Gauge("compose.misses", e.stats.Misses)
	tr.Gauge("compose.remeasured", e.stats.Remeasured)
	tr.Gauge("compose.composed", e.stats.Composed)
}

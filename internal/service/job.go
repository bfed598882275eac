package service

// Job specification, result schema, and the per-kind executors. A job is
// one HTTP submission: the handler validates the spec, the executor runs it
// on the shared cache with per-job token accounting and cooperative
// cancellation, and the result lands as one JSON document at the end of the
// job's event stream.

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Job kinds.
const (
	KindCampaign    = "campaign"
	KindSensitivity = "sensitivity"
	KindSearch      = "search"
)

// JobSpec is the submitted description of one job.
type JobSpec struct {
	// Kind selects the executor: "campaign" (whole-program FI, flat or
	// adaptive), "sensitivity" (compositional per-segment estimate), or
	// "search" (the full PEPPA-X pipeline).
	Kind string `json:"kind"`
	// Bench names the benchmark (prog.Names()).
	Bench string `json:"bench"`
	// Input is the raw input vector, one value per benchmark argument
	// (empty: the reference input). Ignored by search jobs, which find their
	// own input.
	Input []float64 `json:"input,omitempty"`
	// Trials sizes the campaign (default 1000); for adaptive campaigns it
	// is the spend cap, for sensitivity jobs the profile-pass budget.
	Trials int `json:"trials,omitempty"`
	// Seed derives every trial's RNG stream; identical specs yield
	// bit-identical results at any shard or worker configuration.
	Seed uint64 `json:"seed,omitempty"`
	// FaultModel names the fault model campaign trials corrupt with
	// (fault.ModelNames; "" = the single-bit-flip default). Campaign and
	// sensitivity jobs sample from it; for search jobs it applies to the
	// final whole-program campaign, flat or adaptive.
	FaultModel string `json:"fault_model,omitempty"`
	// Workers fans each shard's trials across goroutines
	// (campaign.ParallelOptions semantics).
	Workers int `json:"workers,omitempty"`
	// Shards splits campaign trials into contiguous ranges run concurrently
	// in-process or on peer workers (0: the server default).
	Shards int `json:"shards,omitempty"`
	// Adaptive (or CITarget > 0) switches a campaign job, or a search
	// job's closing campaign, to the adaptive stratified runner.
	Adaptive bool    `json:"adaptive,omitempty"`
	CITarget float64 `json:"ci_target,omitempty"`
	// ComposeThreshold is the profile re-measurement trigger for
	// sensitivity jobs (compose.Options.Threshold semantics).
	ComposeThreshold float64 `json:"compose_threshold,omitempty"`
	// Compose routes a search job's sensitivity and checkpoint
	// measurements through the shared compositional estimator.
	Compose bool `json:"compose,omitempty"`
	// Generations and PopSize configure search jobs (defaults 20 and the
	// GA default).
	Generations int `json:"generations,omitempty"`
	PopSize     int `json:"pop_size,omitempty"`
	// TrialsPerRep is the per-representative FI count of a search job's
	// sensitivity derivation.
	TrialsPerRep int `json:"trials_per_rep,omitempty"`
	// MaxTokens caps the job's dynamic-instruction spend (the service's
	// token currency); exceeding it cancels the job at its next trial or
	// round boundary. 0 uses the server default; negative means unlimited.
	MaxTokens int64 `json:"max_tokens,omitempty"`
}

// fiOptions converts the spec's FI fields into the shared option set — the
// one place a job's wire knobs become campaign configuration, with the same
// resolution rule the command-line tools apply to their flags.
func (spec *JobSpec) fiOptions() (core.FIOptions, error) {
	model, err := fault.CampaignModel(spec.FaultModel)
	if err != nil {
		return core.FIOptions{}, err
	}
	return core.FIOptions{
		Workers:          spec.Workers,
		Model:            model,
		CITarget:         core.CITargetFor(spec.Adaptive, spec.CITarget),
		Compose:          spec.Compose,
		ComposeThreshold: spec.ComposeThreshold,
	}, nil
}

// AdaptiveSummary is the adaptive campaign's result surface.
type AdaptiveSummary struct {
	Strata      int     `json:"strata"`
	Converged   int     `json:"converged"`
	Rounds      int     `json:"rounds"`
	MaxTrials   int     `json:"max_trials"`
	TrialsSaved int     `json:"trials_saved"`
	CITarget    float64 `json:"ci_target"`
}

// SensitivitySummary is the compositional estimate's result surface.
type SensitivitySummary struct {
	Granularity   string `json:"granularity"`
	Segments      int    `json:"segments"`
	Measured      int    `json:"measured"`
	Reused        int    `json:"reused"`
	Remeasured    int    `json:"remeasured"`
	MeasureTrials int    `json:"measure_trials"`
	MeasureDyn    int64  `json:"measure_dyn"`
}

// SearchSummary is the PEPPA-X pipeline's result surface.
type SearchSummary struct {
	BestInput   []float64 `json:"best_input"`
	BestFitness float64   `json:"best_fitness"`
	Generations int       `json:"generations"`
	Evaluations int       `json:"evaluations"`
	FinalTrials int       `json:"final_trials"`
}

// JobResult is the final JSON document of a job's event stream.
type JobResult struct {
	Kind  string    `json:"kind"`
	Bench string    `json:"bench"`
	Input []float64 `json:"input,omitempty"`

	// Golden-run facts (zero for search jobs, which build their own).
	GoldenDyn      int64   `json:"golden_dyn,omitempty"`
	GoldenCoverage float64 `json:"golden_coverage,omitempty"`
	GoldenOutputs  int     `json:"golden_outputs,omitempty"`
	// GoldenCached reports whether the golden run came out of the cross-job
	// cache (true) or was materialized by this job (false).
	GoldenCached bool `json:"golden_cached"`

	// Shards is the shard count the campaign actually used.
	Shards int `json:"shards,omitempty"`
	// Counts is the campaign tally (pooled, for adaptive and sensitivity).
	Counts campaign.Counts `json:"counts"`
	// SDC/Lo/Hi are the measured SDC rate and its honest 95% bounds.
	SDC float64 `json:"sdc"`
	Lo  float64 `json:"lo"`
	Hi  float64 `json:"hi"`

	Adaptive    *AdaptiveSummary    `json:"adaptive,omitempty"`
	Sensitivity *SensitivitySummary `json:"sensitivity,omitempty"`
	Search      *SearchSummary      `json:"search,omitempty"`

	// Tokens is the job's dynamic-instruction spend as metered by the
	// server; Canceled reports a cooperative stop (client disconnect,
	// shutdown, or token budget), in which case the tallies cover only the
	// completed portion.
	Tokens   int64 `json:"tokens"`
	Canceled bool  `json:"canceled,omitempty"`
}

// tokenMeter charges a job's dynamic-instruction spend against its budget
// and cancels the job's context the moment the budget is crossed. Charges
// land at campaign/shard/round granularity, so a job can overshoot by at
// most one in-flight unit of work.
type tokenMeter struct {
	budget int64 // <= 0: unlimited
	spent  atomic.Int64
	cancel context.CancelFunc
}

func (m *tokenMeter) charge(n int64) {
	if n <= 0 {
		return
	}
	if m.spent.Add(n) > m.budget && m.budget > 0 {
		m.cancel()
	}
}

// exceeded reports whether the budget was crossed.
func (m *tokenMeter) exceeded() bool {
	return m.budget > 0 && m.spent.Load() > m.budget
}

// runJob executes a validated spec. ctx is the job's cancellation scope
// (client disconnect + token budget), ew its event stream, rec its private
// telemetry recorder (flushed by the caller before the result document).
func (s *Server) runJob(ctx context.Context, spec *JobSpec, meter *tokenMeter, ew *eventWriter, rec *telemetry.Recorder) (*JobResult, error) {
	fi, err := spec.fiOptions()
	if err != nil {
		return nil, err
	}
	be := s.cache.bench(spec.Bench)
	res := &JobResult{Kind: spec.Kind, Bench: spec.Bench, Shards: spec.Shards}

	if spec.Kind == KindSearch {
		if err := s.runSearch(ctx, spec, fi, be, meter, res, rec); err != nil {
			return nil, err
		}
	} else {
		ge, cached, err := s.cache.golden(be, spec.Input)
		s.publishCacheMetrics()
		if err != nil {
			return nil, err
		}
		if !cached {
			meter.charge(ge.setupDyn)
		}
		g := ge.g
		res.Input = spec.Input
		res.GoldenDyn = g.DynCount
		res.GoldenCoverage = g.Coverage()
		res.GoldenOutputs = len(g.Output)
		res.GoldenCached = cached
		ew.event("job.golden", map[string]any{
			"dyn": g.DynCount, "coverage": g.Coverage(), "outputs": len(g.Output), "cached": cached,
		})
		tr := rec.Stream("job/" + spec.Bench)
		tr.Advance(g.DynCount)
		tr.Emit("fi.golden",
			telemetry.F("dyn", g.DynCount),
			telemetry.F("coverage", g.Coverage()),
			telemetry.F("outputs", len(g.Output)))

		switch spec.Kind {
		case KindCampaign:
			if err := s.runCampaign(ctx, spec, fi, be, g, meter, res, ew, tr); err != nil {
				return nil, err
			}
		case KindSensitivity:
			if err := s.runSensitivity(ctx, spec, fi, be, g, meter, res, tr); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
		}
	}

	res.Tokens = meter.spent.Load()
	res.Canceled = ctx.Err() != nil
	if meter.exceeded() {
		return nil, fmt.Errorf("token budget exceeded: spent %d of %d", meter.spent.Load(), meter.budget)
	}
	return res, nil
}

// runCampaign executes a whole-program FI campaign: the flat sharded
// coordinator, or the adaptive stratified runner with a sharded round
// executor. Either way results are bit-identical to the single-process run
// of the same spec.
func (s *Server) runCampaign(ctx context.Context, spec *JobSpec, fi core.FIOptions, be *benchEntry, g *campaign.Golden, meter *tokenMeter, res *JobResult, ew *eventWriter, tr *telemetry.Stream) error {
	if fi.CITarget > 0 {
		ar := campaign.OverallAdaptive(be.b.Prog, g, campaign.AdaptiveOptions{
			Workers:   fi.Workers,
			Seed:      spec.Seed,
			CITarget:  fi.CITarget,
			MaxTrials: spec.Trials,
			Ctx:       ctx,
			Runner:    s.meteredRunner(spec.Shards, meter),
			Model:     fi.Model,
		})
		tr.Advance(ar.Counts.DynInstrs)
		campaign.EmitAdaptiveTelemetry(tr, "fi.adaptive", ar)
		res.Counts = ar.Counts
		res.SDC, res.Lo, res.Hi = ar.Estimate, ar.Lo, ar.Hi
		res.Adaptive = &AdaptiveSummary{
			Strata:      len(ar.Strata),
			Converged:   ar.StrataConverged(),
			Rounds:      ar.Rounds,
			MaxTrials:   ar.MaxTrials,
			TrialsSaved: ar.TrialsSaved(),
			CITarget:    ar.CITarget,
		}
		return nil
	}
	c, err := s.runFlatCampaign(ctx, spec, be, g, fi.Model, meter, ew)
	if err != nil {
		return err
	}
	tr.Advance(c.DynInstrs)
	tr.Emit("fi.campaign", c.Fields()...)
	res.Counts = c
	res.SDC = c.SDCProbability()
	res.Lo, res.Hi = c.SDCInterval()
	return nil
}

// runSensitivity composes the whole-program SDC estimate from the shared
// per-segment profile cache — concurrent jobs on the same program measure
// each profile once.
func (s *Server) runSensitivity(ctx context.Context, spec *JobSpec, fi core.FIOptions, be *benchEntry, g *campaign.Golden, meter *tokenMeter, res *JobResult, tr *telemetry.Stream) error {
	e := compose.NewEstimator(be.b.Prog, s.cache.profiles, compose.Options{
		Trials:    spec.Trials,
		Threshold: fi.ComposeThreshold,
		Workers:   fi.Workers,
		Seed:      spec.Seed,
		Model:     fi.Model,
		Trace:     tr,
		Ctx:       ctx,
		Runner:    s.meteredRunner(spec.Shards, meter),
	})
	est := e.EstimateGolden(g)
	tr.Advance(est.MeasureDyn)
	s.publishCacheMetrics()
	part := e.Partition()
	res.Counts = est.Counts
	res.SDC, res.Lo, res.Hi = est.SDC, est.Lo, est.Hi
	res.Sensitivity = &SensitivitySummary{
		Granularity:   part.Granularity,
		Segments:      len(part.Segments),
		Measured:      est.Measured,
		Reused:        est.Reused,
		Remeasured:    est.Remeasured,
		MeasureTrials: est.MeasureTrials,
		MeasureDyn:    est.MeasureDyn,
	}
	return nil
}

// runSearch runs the full PEPPA-X pipeline. The compose cache is the
// shared one, so searches on the same benchmark reuse profiles across jobs;
// token charges land once per pipeline phase via the final cost breakdown
// plus the metered compose runner during the search itself.
func (s *Server) runSearch(ctx context.Context, spec *JobSpec, fi core.FIOptions, be *benchEntry, meter *tokenMeter, res *JobResult, rec *telemetry.Recorder) error {
	opts := core.DefaultOptions()
	opts.Generations = spec.Generations
	if opts.Generations <= 0 {
		opts.Generations = 20
	}
	if spec.PopSize > 0 {
		opts.PopSize = spec.PopSize
	}
	if spec.Trials > 0 {
		opts.FinalTrials = spec.Trials
	}
	if spec.TrialsPerRep > 0 {
		opts.TrialsPerRep = spec.TrialsPerRep
	}
	opts.FIOptions = fi
	opts.ComposeCache = s.cache.profiles
	opts.Ctx = ctx
	opts.Trace = rec.Stream("job/" + spec.Bench)
	r, err := core.Search(be.b, opts, xrand.New(spec.Seed))
	if err != nil {
		return err
	}
	meter.charge(r.Cost.SmallInputDyn + r.Cost.SensitivityDyn + r.Cost.SearchDyn + r.Cost.FinalFIDyn)
	s.publishCacheMetrics()
	res.Counts = r.Final
	res.SDC = r.SDCBound()
	res.Lo, res.Hi = r.SDCInterval()
	res.Search = &SearchSummary{
		BestInput:   r.BestInput,
		BestFitness: r.BestFitness,
		Generations: opts.Generations,
		Evaluations: r.Evaluations,
		FinalTrials: r.Final.Trials,
	}
	return nil
}

// meteredRunner wraps the in-process sharded runner with token accounting
// and shard-throughput metrics: each round's completed trials charge their
// dynamic instructions after the round returns, so a blown budget cancels
// the job before its next round.
func (s *Server) meteredRunner(shards int, meter *tokenMeter) campaign.TrialRunner {
	base := campaign.ShardedRunner(shards)
	return func(p *interp.Program, g *campaign.Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts campaign.ParallelOptions) []campaign.TrialResult {
		res := base(p, g, plans, rngFor, opts)
		var dyn, trials int64
		for _, t := range res {
			if t.Skipped {
				continue
			}
			dyn += t.Dyn
			trials++
		}
		meter.charge(dyn)
		s.rec.Count("service.shard.trials", trials)
		s.rec.Count("service.shard.dyn", dyn)
		return res
	}
}

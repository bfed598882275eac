package core

import (
	"repro/internal/campaign"
	"repro/internal/fault"
)

// FIOptions is the fault-injection configuration every FI consumer shares:
// the search (Options), the baseline (BaselineOptions) and the experiment
// suite embed it, and the fi, peppax and experiments tools fill it from one
// flag set. Workers never changes a result; the other knobs select what is
// measured, as each field says. Engine tuning is not an option: every FI
// golden is checkpointed at the auto-derived spacing
// (campaign.CheckpointAuto), and every campaign runs trial by trial.
type FIOptions struct {
	// Workers fans the work across goroutines (0 = GOMAXPROCS, 1 = serial):
	// GA candidate evaluation, FI trials and concurrent experiments. Work is
	// drawn and folded serially, and every trial's RNG derives from its
	// campaign seed and index, so results are bit-identical for every value.
	Workers int
	// Model selects the fault model of the whole-program measurements: the
	// Figure 5 checkpoints, the closing measurement and the baseline's
	// candidates, whether flat, adaptive or compositional. Nil is the
	// single-bit-flip default, byte-identical to the historical path. The
	// search's §4.2.3 sensitivity derivation and GA fitness stay
	// single-flip: they are search heuristics, not the reported bound. So
	// under Compose with a non-nil Model the checkpoints get their own
	// estimator under Model, on the same profile cache.
	Model fault.Model
	// CITarget > 0 switches the closing measurement (and each baseline
	// candidate's campaign) to the adaptive stratified runner
	// (campaign.OverallAdaptive): strata are heat-ranked by the sensitivity
	// scores when the caller has them, trials are allocated by estimated
	// variance, and the campaign stops once the composed 95% Wilson
	// half-width falls below this target. The flat campaign size becomes
	// the spend cap. Figure 5 checkpoints stay flat so curves remain
	// comparable across generations.
	CITarget float64
	// Compose switches the sensitivity derivation, the Figure 5 checkpoints
	// and the baseline's candidate evaluations to the compositional
	// estimator (internal/compose): per-segment SDC profiles are measured
	// once, cached, re-measured only when a segment's dynamic mix drifts
	// past ComposeThreshold, and composed under each input's execution mix.
	// The closing campaign stays a direct measurement. Compose draws one
	// extra seed off the search RNG, so it changes sampled plans versus a
	// non-compose run; composed results are bit-identical for every
	// Workers.
	Compose bool
	// ComposeThreshold is the profile re-measurement trigger
	// (0: compose.DefaultThreshold; < 0: never re-measure).
	ComposeThreshold float64
	// ComposeTrials is the trial budget of a full profile measurement pass
	// (<= 0: compose.DefaultTrials).
	ComposeTrials int
	// HeatTopK sizes the per-instruction heat events traced at search
	// checkpoints, the final measurement and baseline bests: the top-k
	// static instructions by sensitivity score × dynamic-execution fraction
	// (0 = telemetry.DefaultHeatTopK, negative disables). Ties break by
	// instruction id, so traces stay byte-identical across worker counts.
	HeatTopK int
}

// CITargetFor resolves the adaptive switch pair every front end exposes
// (-adaptive/-ci-target, the adaptive/ci_target job fields): a positive
// target implies adaptive, adaptive alone uses campaign.DefaultCITarget,
// and neither keeps the campaigns flat (0).
func CITargetFor(adaptive bool, target float64) float64 {
	switch {
	case target > 0:
		return target
	case adaptive:
		return campaign.DefaultCITarget
	}
	return 0
}

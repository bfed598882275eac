// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §5, §6) on the repository's simulated substrate. Each
// experiment returns a typed result with a Render method producing the
// table/series the paper reports; cmd/experiments drives them and writes
// EXPERIMENTS.md.
//
// Absolute numbers differ from the paper (our programs are scaled-down IR
// kernels on an interpreter, not billion-instruction native runs on an
// i9-10900); what must reproduce is the shape of each result, which every
// Render notes alongside the paper's values.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// Config sets the experiment scales. DefaultConfig approximates the paper's
// methodology scaled to interpreter workloads; QuickConfig shrinks trial
// counts so the full suite runs in seconds (used by tests and -quick).
type Config struct {
	// Seed drives every RNG in the suite; same seed, same report.
	Seed uint64

	// RandomInputs is the per-benchmark random input count for the initial
	// FI study (the paper keeps 30, §3.1.2).
	RandomInputs int
	// OverallTrials is the whole-program FI campaign size (1000, §3.1.4).
	OverallTrials int

	// PerInstrInputs and PerInstrTrials configure the per-instruction
	// study behind Figure 2 / Table 3 (the paper uses 100 trials per
	// instruction; we default lower because the study covers every
	// instruction on several inputs).
	PerInstrInputs int
	PerInstrTrials int

	// SearchGenerations is the Figure 5 budget axis maximum; Checkpoints
	// the generation counts at which bounds are FI-measured.
	SearchGenerations int
	SearchPop         int
	Checkpoints       []int
	// TrialsPerRep is the sensitivity-derivation trial count (30, §4.2.3).
	TrialsPerRep int

	// HeatmapGrid is the per-axis resolution of Figure 6's input-space
	// sweep; HeatmapTrials the FI campaign size per grid point.
	HeatmapGrid   int
	HeatmapTrials int

	// StressProfileTrials is the per-instruction trial count used to build
	// the §6 protection profiles; StressTrials the campaign size for each
	// expected/actual coverage measurement.
	StressProfileTrials int
	StressTrials        int

	// Baseline5x scales the baseline budget for the Figure 7 comparison.
	Baseline5x float64

	// Benches restricts the benchmark set (nil = all ten).
	Benches []string

	// Recorder, when non-nil, receives the suite's telemetry: each
	// memoized artifact (search, baseline, study, per-instruction study)
	// emits into its own keyed stream, so the trace is byte-identical for
	// any worker count even though experiments run concurrently. Nil
	// disables telemetry.
	Recorder *telemetry.Recorder

	// Strategies restricts the strategies experiment to a subset of
	// search.All() by name (e.g. "genetic", "fuzz"); nil runs every
	// strategy. Validate rejects unknown names.
	Strategies []string

	// FIOptions configures the suite's FI campaigns. Workers also sizes
	// the concurrent experiments of RunAll/RunAllStructured; Model, CITarget
	// and Compose apply to the searches and baselines, while the §3 studies
	// keep flat single-flip campaigns — they reproduce the paper's
	// measurements. Same seed, same report, for any Workers.
	core.FIOptions
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:                20211114, // SC '21 opening day
		RandomInputs:        30,
		OverallTrials:       1000,
		PerInstrInputs:      4,
		PerInstrTrials:      20,
		SearchGenerations:   1000,
		SearchPop:           16,
		Checkpoints:         []int{50, 100, 200, 500, 1000},
		TrialsPerRep:        30,
		HeatmapGrid:         14,
		HeatmapTrials:       250,
		StressProfileTrials: 30,
		StressTrials:        1000,
		Baseline5x:          5,
	}
}

// QuickConfig returns a configuration small enough for unit tests.
func QuickConfig() Config {
	return Config{
		Seed:                20211114,
		RandomInputs:        6,
		OverallTrials:       120,
		PerInstrInputs:      3,
		PerInstrTrials:      8,
		SearchGenerations:   30,
		SearchPop:           8,
		Checkpoints:         []int{10, 30},
		TrialsPerRep:        8,
		HeatmapGrid:         5,
		HeatmapTrials:       60,
		StressProfileTrials: 8,
		StressTrials:        150,
		Baseline5x:          5,
	}
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.RandomInputs < 2 || c.OverallTrials < 10 || c.SearchGenerations < 1 {
		return fmt.Errorf("experiments: config too small: %+v", c)
	}
	if len(c.Checkpoints) == 0 {
		return fmt.Errorf("experiments: at least one checkpoint required")
	}
	for _, cp := range c.Checkpoints {
		if cp < 1 || cp > c.SearchGenerations {
			return fmt.Errorf("experiments: checkpoint %d outside 1..%d", cp, c.SearchGenerations)
		}
	}
	known := make(map[string]bool)
	for _, st := range search.All() {
		known[st.Name()] = true
	}
	for _, name := range c.Strategies {
		if !known[name] {
			return fmt.Errorf("experiments: unknown search strategy %q", name)
		}
	}
	return nil
}

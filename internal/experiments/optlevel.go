package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/opt"
)

// OptLevelRow compares one benchmark's fault-injection profile before and
// after scalar optimization.
type OptLevelRow struct {
	Bench string
	// Instruction counts before/after.
	StaticO0, StaticOpt int
	DynO0, DynOpt       int64
	// SDC probabilities before/after (same input, same trial count).
	SDCO0, SDCOpt float64
	// CrashO0/CrashOpt: crash fractions, which also shift with the mix.
	CrashO0, CrashOpt float64
}

// OptLevelResult is the optimization-level extension experiment: scalar
// optimization removes redundant, heavily-masking bookkeeping instructions,
// concentrating execution on value-carrying operations — the FI literature
// consistently finds optimized code exhibits equal-or-higher SDC
// probability per activated fault. This experiment measures that effect on
// the reproduction substrate.
type OptLevelResult struct {
	Trials int
	Rows   []OptLevelRow
}

// OptLevel runs paired FI campaigns on -O0-style and optimized modules.
func OptLevel(s *Suite) (*OptLevelResult, error) {
	res := &OptLevelResult{Trials: s.Cfg.OverallTrials}
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		rng := s.rng("optlevel", name)
		optimized, _ := opt.Optimize(b.Module)
		p2, err := interp.Compile(optimized)
		if err != nil {
			return nil, fmt.Errorf("experiments: optlevel %s: %w", name, err)
		}
		g0, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			return nil, err
		}
		g1, err := campaign.NewGoldenCheckpointed(p2, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			return nil, err
		}
		c0 := campaign.OverallParallel(b.Prog, g0, s.Cfg.OverallTrials, oneWorker(rng))
		c1 := campaign.OverallParallel(p2, g1, s.Cfg.OverallTrials, oneWorker(rng))
		res.Rows = append(res.Rows, OptLevelRow{
			Bench:     name,
			StaticO0:  b.Prog.NumInstrs(),
			StaticOpt: p2.NumInstrs(),
			DynO0:     g0.DynCount,
			DynOpt:    g1.DynCount,
			SDCO0:     c0.SDCProbability(),
			SDCOpt:    c1.SDCProbability(),
			CrashO0:   float64(c0.Crash) / float64(c0.Trials),
			CrashOpt:  float64(c1.Crash) / float64(c1.Trials),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r *OptLevelResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%d/%d", row.StaticO0, row.StaticOpt),
			fmt.Sprintf("%d/%d", row.DynO0, row.DynOpt),
			pct(row.SDCO0), pct(row.SDCOpt),
			pct(row.CrashO0), pct(row.CrashOpt),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Optimization level (extension): FI profile of -O0-style vs optimized modules, %d trials each\n", r.Trials)
	sb.WriteString("Scalar optimization (constfold/simplify/CSE/load-forwarding/DCE) removes masking bookkeeping;\n")
	sb.WriteString("the per-activated-fault SDC probability of optimized code is expected equal or higher.\n\n")
	sb.WriteString(renderTable(
		[]string{"Benchmark", "Static O0/opt", "Dyn O0/opt", "SDC O0", "SDC opt", "Crash O0", "Crash opt"}, rows))
	return sb.String()
}

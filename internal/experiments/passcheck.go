package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/duplication"
	"repro/internal/interp"
)

// PassCheckRow compares the detector-predicate protection model against the
// real duplicate-and-compare IR transformation for one benchmark.
type PassCheckRow struct {
	Bench string
	// UnprotectedSDC is the baseline; ModelSDC and PassSDC the residual SDC
	// probability under each protection implementation.
	UnprotectedSDC float64
	ModelSDC       float64
	PassSDC        float64
	// PassDetected is the fraction of faults caught by the in-program
	// checks; PassOverhead the measured dynamic-instruction overhead.
	PassDetected float64
	PassOverhead float64
	Protected    int
}

// PassCheckResult validates the §6 modelling choice: classifying faults at
// protected instructions as Detected must agree with actually transforming
// the IR. The transformed program additionally exposes the checking code's
// own vulnerability (duplicates and compares are fault sites too), so the
// pass's residual SDC sits at or slightly above the model's.
type PassCheckResult struct {
	Level float64
	Rows  []PassCheckRow
}

// PassCheck runs both protection implementations at the 50 % overhead level.
func PassCheck(s *Suite) (*PassCheckResult, error) {
	const level = 0.5
	res := &PassCheckResult{Level: level}
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		rng := s.rng("passcheck", name)
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, s.Cfg.CheckpointInterval)
		if err != nil {
			return nil, err
		}
		profiles := duplication.Profile(b.Prog, g, s.Cfg.StressProfileTrials, rng)
		sel := duplication.FilterDuplicable(b.Module, duplication.Select(profiles, g.DynCount, level))

		// The unprotected and model campaigns run the same trials: the
		// detector only reclassifies them.
		paired := oneWorker(rng)
		unprot := campaign.OverallParallel(b.Prog, g, s.Cfg.StressTrials, paired)
		paired.Detector = sel.Detector()
		model := campaign.OverallParallel(b.Prog, g, s.Cfg.StressTrials, paired)

		mod, err := duplication.ApplyPass(b.Module, sel.Protected)
		if err != nil {
			return nil, err
		}
		p2, err := interp.Compile(mod)
		if err != nil {
			return nil, err
		}
		g2, err := campaign.NewGoldenCheckpointed(p2, b.Encode(b.RefInput()), b.MaxDyn*4, s.Cfg.CheckpointInterval)
		if err != nil {
			return nil, err
		}
		pass := campaign.OverallParallel(p2, g2, s.Cfg.StressTrials, oneWorker(rng))

		res.Rows = append(res.Rows, PassCheckRow{
			Bench:          name,
			UnprotectedSDC: unprot.SDCProbability(),
			ModelSDC:       model.SDCProbability(),
			PassSDC:        pass.SDCProbability(),
			PassDetected:   float64(pass.Detected) / float64(pass.Trials),
			PassOverhead:   float64(g2.DynCount)/float64(g.DynCount) - 1,
			Protected:      len(sel.Protected),
		})
	}
	return res, nil
}

// Render produces the comparison table.
func (r *PassCheckResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench, pct(row.UnprotectedSDC), pct(row.ModelSDC), pct(row.PassSDC),
			pct(row.PassDetected), pct(row.PassOverhead), fmt.Sprint(row.Protected),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pass check (extension): detector-model vs real duplicate-and-compare IR pass at %.0f%% overhead\n", r.Level*100)
	sb.WriteString("Both implementations must agree that protection slashes SDC; the real pass also runs the checks\n")
	sb.WriteString("as code (overhead measured, checks themselves injectable).\n\n")
	sb.WriteString(renderTable(
		[]string{"Benchmark", "Unprotected", "Model SDC", "Pass SDC", "Pass detected", "Overhead", "Protected"}, rows))
	return sb.String()
}

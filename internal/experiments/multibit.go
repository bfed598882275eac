package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// MultiBitRow compares single- and double-bit SDC probabilities for one
// benchmark's reference input.
type MultiBitRow struct {
	Bench     string
	SingleSDC float64
	DoubleSDC float64
	// Delta is |double - single| in SDC-probability points.
	Delta float64
	// SingleLo/Hi and DoubleLo/Hi are each campaign's true 95% Wilson
	// bounds; Agree records whether the two intervals overlap (the honest
	// form of "the difference is within noise" — the former p̂±half-width
	// comparison went negative at the boundaries).
	SingleLo, SingleHi float64
	DoubleLo, DoubleHi float64
	Agree              bool
}

// MultiBitResult checks the fault-model justification of §3.1.3: the paper
// adopts single bit flips citing evidence that application-level SDC
// probabilities barely differ between single- and multi-bit flips. This
// experiment replays that comparison on the reproduction substrate.
type MultiBitResult struct {
	Trials int
	Rows   []MultiBitRow
}

// MultiBit measures both fault models on each benchmark's reference input.
func MultiBit(s *Suite) (*MultiBitResult, error) {
	res := &MultiBitResult{Trials: s.Cfg.OverallTrials}
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		rng := s.rng("multibit", name)
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, s.Cfg.CheckpointInterval)
		if err != nil {
			return nil, err
		}
		single := campaign.OverallParallel(b.Prog, g, s.Cfg.OverallTrials, oneWorker(rng))
		flip2 := oneWorker(rng)
		flip2.Model = fault.DoubleFlip
		double := campaign.OverallParallel(b.Prog, g, s.Cfg.OverallTrials, flip2)

		sLo, sHi := single.SDCInterval()
		dLo, dHi := double.SDCInterval()
		res.Rows = append(res.Rows, MultiBitRow{
			Bench:     name,
			SingleSDC: single.SDCProbability(),
			DoubleSDC: double.SDCProbability(),
			Delta:     math.Abs(single.SDCProbability() - double.SDCProbability()),
			SingleLo:  sLo, SingleHi: sHi,
			DoubleLo: dLo, DoubleHi: dHi,
			Agree: sLo <= dHi && dLo <= sHi,
		})
	}
	return res, nil
}

// Render produces the comparison table.
func (r *MultiBitResult) Render() string {
	var rows [][]string
	within := 0
	for _, row := range r.Rows {
		mark := "no"
		if row.Agree {
			mark = "yes"
			within++
		}
		rows = append(rows, []string{
			row.Bench, pct(row.SingleSDC), pct(row.DoubleSDC),
			pct(row.Delta), mark,
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-bit ablation (extension): single vs double bit flips, %d trials each\n", r.Trials)
	sb.WriteString("§3.1.3 justification: at the application level, SDC probability barely differs between\n")
	sb.WriteString("single- and multi-bit flips (Sangchoolie et al.), so single flips are the standard model.\n\n")
	sb.WriteString(renderTable([]string{"Benchmark", "Single-bit SDC", "Double-bit SDC", "|delta|", "CIs overlap"}, rows))
	fmt.Fprintf(&sb, "\nOverlapping 95%% confidence intervals: %d/%d benchmarks\n", within, len(r.Rows))
	return sb.String()
}

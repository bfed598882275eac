package experiments

import (
	"fmt"
	"strings"
)

// Figure5Point is one (benchmark, generation-budget) comparison.
type Figure5Point struct {
	Generations int
	// PeppaSDC is the FI-measured SDC probability of PEPPA-X's best input
	// at this budget; PeppaFitness its fitness score.
	PeppaSDC     float64
	PeppaFitness float64
	PeppaInput   []float64
	// BaselineSDC is the best the random+FI baseline found within the same
	// dynamic-instruction budget; BudgetDyn that budget.
	BaselineSDC float64
	BudgetDyn   int64
}

// Figure5Bench is one benchmark's series.
type Figure5Bench struct {
	Bench  string
	Points []Figure5Point
	// RefSDC is the reference input's SDC probability, for the §5.1
	// observation that PEPPA-X always beats the default reference input.
	RefSDC float64
}

// Figure5Result reproduces Figure 5: the SDC probability bounded by
// PEPPA-X vs the baseline at equal search budgets of 50/100/200/500/1000
// generations.
type Figure5Result struct {
	Benches []Figure5Bench
}

// Figure5 runs the searches and budget-matched baselines.
func Figure5(s *Suite) (*Figure5Result, error) {
	res := &Figure5Result{}
	for _, name := range s.BenchNames() {
		search, err := s.Search(name)
		if err != nil {
			return nil, err
		}
		base, err := s.Baseline(name)
		if err != nil {
			return nil, err
		}
		study, err := s.Study(name)
		if err != nil {
			return nil, err
		}
		fb := Figure5Bench{Bench: name, RefSDC: study.Ref.SDC}
		for _, cp := range search.Checkpoints {
			budget := search.PipelineDynAt(cp.Generation)
			fb.Points = append(fb.Points, Figure5Point{
				Generations:  cp.Generation,
				PeppaSDC:     cp.P,
				PeppaFitness: cp.Fitness,
				PeppaInput:   cp.BestInput,
				BaselineSDC:  BaselineBestWithin(base, budget),
				BudgetDyn:    budget,
			})
		}
		res.Benches = append(res.Benches, fb)
	}
	return res, nil
}

// Render produces the figure-as-table text.
func (r *Figure5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: SDC probability bounded by PEPPA-X vs the baseline at equal search budgets\n")
	sb.WriteString("Paper shape: PEPPA-X finds equal-or-higher bounds everywhere; much higher on benchmarks whose\n")
	sb.WriteString("SDC-bound inputs are sparse in the input space (Pathfinder, Needle, CoMD, Xsbench); comparable on\n")
	sb.WriteString("dense ones (Hpccg, Particlefilter, FFT). PEPPA-X always exceeds the default reference input.\n\n")
	for _, fb := range r.Benches {
		fmt.Fprintf(&sb, "%s (reference input SDC: %s)\n", fb.Bench, pct(fb.RefSDC))
		var rows [][]string
		for _, p := range fb.Points {
			rows = append(rows, []string{
				fmt.Sprint(p.Generations), pct(p.PeppaSDC), pct(p.BaselineSDC),
				fmt.Sprintf("%.3f", p.PeppaFitness),
				fmt.Sprintf("%.0fM", float64(p.BudgetDyn)/1e6),
				inputString(p.PeppaInput),
			})
		}
		sb.WriteString(renderTable(
			[]string{"Gens", "PEPPA-X SDC", "Baseline SDC", "Fitness", "Budget", "PEPPA-X input"}, rows))
		sb.WriteString("\n")
	}
	return sb.String()
}

// baseline5x scales the baseline budget for the Figure 7 comparison: five
// times PEPPA-X's pipeline cost at the cut-off generation.
const baseline5x = 5

// Figure7Row is one benchmark of the 5x-budget comparison.
type Figure7Row struct {
	Bench         string
	PeppaSDC      float64 // PEPPA-X at the 200-generation cut-off
	Baseline5xSDC float64 // baseline with 5x PEPPA-X's budget
	CutoffGen     int
	BudgetDyn     int64
}

// Figure7Result reproduces Figure 7: the baseline given 5x more search time
// still does not reach PEPPA-X's 200-generation bound on the sparse
// benchmarks.
type Figure7Result struct {
	Rows []Figure7Row
}

// Figure7 compares PEPPA-X at the cut-off generation against the baseline
// with a 5x budget.
func Figure7(s *Suite) (*Figure7Result, error) {
	res := &Figure7Result{}
	cutoff := s.cutoffGen()
	for _, name := range s.BenchNames() {
		search, err := s.Search(name)
		if err != nil {
			return nil, err
		}
		base, err := s.Baseline(name)
		if err != nil {
			return nil, err
		}
		var peppa float64
		for _, cp := range search.Checkpoints {
			if cp.Generation == cutoff {
				peppa = cp.P
			}
		}
		budget := baseline5x * search.PipelineDynAt(cutoff)
		res.Rows = append(res.Rows, Figure7Row{
			Bench:         name,
			PeppaSDC:      peppa,
			Baseline5xSDC: BaselineBestWithin(base, budget),
			CutoffGen:     cutoff,
			BudgetDyn:     budget,
		})
	}
	return res, nil
}

// Render produces the table text.
func (r *Figure7Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench, pct(row.PeppaSDC), pct(row.Baseline5xSDC),
			fmt.Sprintf("%.0fM", float64(row.BudgetDyn)/1e6),
		})
	}
	var sb strings.Builder
	gen := 200
	if len(r.Rows) > 0 {
		gen = r.Rows[0].CutoffGen
	}
	fmt.Fprintf(&sb, "Figure 7: PEPPA-X at %d generations vs baseline with 5x more search budget\n", gen)
	sb.WriteString("Paper shape: where the baseline under-performed in Figure 5, 5x more time does not close the gap.\n\n")
	sb.WriteString(renderTable([]string{"Benchmark", "PEPPA-X", "Baseline (5x budget)", "Baseline budget"}, rows))
	return sb.String()
}

// Figure8Row is the cost of PEPPA-X at a generation budget, averaged over
// benchmarks, split into the fixed sensitivity analysis and the growing
// search.
type Figure8Row struct {
	Generations    int
	TotalDyn       int64
	SensitivityDyn int64
}

// Figure8Result reproduces Figure 8: total time grows linearly with
// generations while the sensitivity analysis is a fixed one-time cost.
type Figure8Result struct {
	Rows []Figure8Row
}

// Figure8 derives the cost curve from the cached searches.
func Figure8(s *Suite) (*Figure8Result, error) {
	gens := []int{50, 100, 150, 200}
	if s.Cfg.SearchGenerations < 200 {
		// Quick configs: quarter points of the configured budget.
		g := s.Cfg.SearchGenerations
		gens = []int{g / 4, g / 2, 3 * g / 4, g}
		for i := range gens {
			if gens[i] < 1 {
				gens[i] = 1
			}
		}
	}
	res := &Figure8Result{}
	for _, gen := range gens {
		var total, sens int64
		var n int64
		for _, name := range s.BenchNames() {
			search, err := s.Search(name)
			if err != nil {
				return nil, err
			}
			total += search.PipelineDynAt(gen)
			sens += search.Cost.SensitivityDyn
			n++
		}
		res.Rows = append(res.Rows, Figure8Row{
			Generations:    gen,
			TotalDyn:       total / n,
			SensitivityDyn: sens / n,
		})
	}
	return res, nil
}

// Render produces the series text.
func (r *Figure8Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		frac := 0.0
		if row.TotalDyn > 0 {
			frac = float64(row.SensitivityDyn) / float64(row.TotalDyn)
		}
		rows = append(rows, []string{
			fmt.Sprint(row.Generations),
			fmt.Sprintf("%.0fM", float64(row.TotalDyn)/1e6),
			fmt.Sprintf("%.0fM", float64(row.SensitivityDyn)/1e6),
			pct(frac),
		})
	}
	var sb strings.Builder
	sb.WriteString("Figure 8: Average PEPPA-X cost vs generations (dynamic instructions; paper reports hours)\n")
	sb.WriteString("Paper shape: sensitivity analysis is a fixed one-time cost; total grows linearly with generations.\n\n")
	sb.WriteString(renderTable([]string{"Generations", "Total cost", "Sensitivity analysis", "Fixed share"}, rows))
	return sb.String()
}

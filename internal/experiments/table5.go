package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sensitivity"
)

// Table5Row compares the cost of deriving the SDC sensitivity distribution
// with and without PEPPA-X's heuristics for one benchmark.
type Table5Row struct {
	Bench string
	// WithDyn: pruned representatives × 30 trials on the small FI input.
	WithDyn int64
	// WithoutDyn: every instruction × 30 trials on the reference input.
	WithoutDyn int64
	Speedup    float64
	// PaperWithHrs / PaperWithoutHrs are the published hours.
	PaperWithHrs    float64
	PaperWithoutHrs float64
}

// Table5Result reproduces Table 5: time for the analysis of the SDC
// sensitivity distribution (paper: 10.45 h average with heuristics vs
// 841.20 h without — an ~84x speedup).
type Table5Result struct {
	Rows       []Table5Row
	AvgSpeedup float64
}

var paperTable5With = map[string]float64{
	"pathfinder": 0.08, "needle": 0.33, "particlefilter": 0.80,
	"comd": 59.67, "hpccg": 1.08, "xsbench": 10.84, "fft": 0.33,
}

var paperTable5Without = map[string]float64{
	"pathfinder": 0.13, "needle": 20.76, "particlefilter": 2.78,
	"comd": 5029.76, "hpccg": 775.11, "xsbench": 58.71, "fft": 1.14,
}

// Table5 measures both configurations' dynamic-instruction cost.
func Table5(s *Suite) (*Table5Result, error) {
	res := &Table5Result{}
	var sum float64
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		search, err := s.Search(name)
		if err != nil {
			return nil, err
		}
		// With heuristics: reuse the search's own derivation (pruning +
		// small FI input).
		withDyn := search.Distribution.FIDynInstrs

		// Without heuristics: every instruction, reference input.
		refGolden, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			return nil, err
		}
		dist := sensitivity.Derive(b.Prog, refGolden, sensitivity.Options{
			TrialsPerRep: s.Cfg.TrialsPerRep,
			UsePruning:   false,
		}, s.rng("table5", name))
		withoutDyn := dist.FIDynInstrs

		speedup := 0.0
		if withDyn > 0 {
			speedup = float64(withoutDyn) / float64(withDyn)
		}
		res.Rows = append(res.Rows, Table5Row{
			Bench: name, WithDyn: withDyn, WithoutDyn: withoutDyn, Speedup: speedup,
			PaperWithHrs: paperTable5With[name], PaperWithoutHrs: paperTable5Without[name],
		})
		sum += speedup
	}
	res.AvgSpeedup = sum / float64(len(res.Rows))
	return res, nil
}

// Render produces the table text.
func (r *Table5Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		paperSpeedup := row.PaperWithoutHrs / row.PaperWithHrs
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.1fM", float64(row.WithDyn)/1e6),
			fmt.Sprintf("%.1fM", float64(row.WithoutDyn)/1e6),
			fmt.Sprintf("%.1fx", row.Speedup),
			fmt.Sprintf("%.1fx", paperSpeedup),
		})
	}
	var sb strings.Builder
	sb.WriteString("Table 5: Cost of deriving the SDC sensitivity distribution, with vs without heuristics\n")
	sb.WriteString("(cost in dynamic instructions executed by FI trials; the paper reports wall-clock hours on its testbed)\n")
	sb.WriteString("Paper shape: heuristics cut the analysis cost by large, benchmark-dependent factors (~84x mean over hours).\n\n")
	sb.WriteString(renderTable([]string{"Benchmark", "With heuristics", "Without", "Speedup (ours)", "Speedup (paper)"}, rows))
	fmt.Fprintf(&sb, "\nAverage speedup: %.1fx\n", r.AvgSpeedup)
	return sb.String()
}

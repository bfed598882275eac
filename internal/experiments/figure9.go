package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/duplication"
)

// Figure9Cell is one (benchmark, protection-level) stress-test measurement.
type Figure9Cell struct {
	Bench    string
	Level    float64
	Expected float64 // coverage measured with the reference input
	Actual   float64 // coverage measured with the SDC-bound input
	// Overhead is the selection's measured dynamic overhead fraction.
	Overhead float64
	// ProtectedInstrs is the selected instruction count.
	ProtectedInstrs int
}

// Figure9Result reproduces Figure 9: selective instruction duplication
// deployed from reference-input profiles, stress-tested with PEPPA-X's
// SDC-bound inputs.
type Figure9Result struct {
	Levels []float64
	Cells  []Figure9Cell
}

// Figure9 runs the §6 case study on every benchmark, using the suite's
// cached searches for the SDC-bound inputs.
func Figure9(s *Suite) (*Figure9Result, error) {
	levels := []float64{0.3, 0.5, 0.7}
	res := &Figure9Result{Levels: levels}
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		search, err := s.Search(name)
		if err != nil {
			return nil, err
		}
		rng := s.rng("fig9", name)
		refGolden, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			return nil, err
		}
		boundGolden, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(search.BestInput), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			return nil, err
		}
		profiles := duplication.Profile(b.Prog, refGolden, s.Cfg.StressProfileTrials, rng)
		results := duplication.StressTest(b.Prog, refGolden, boundGolden, profiles,
			levels, s.Cfg.StressTrials, rng)
		for _, sl := range results {
			res.Cells = append(res.Cells, Figure9Cell{
				Bench:           name,
				Level:           sl.Level,
				Expected:        sl.Expected.Coverage,
				Actual:          sl.Actual.Coverage,
				Overhead:        sl.Protection.Overhead(refGolden.DynCount),
				ProtectedInstrs: len(sl.Protection.Protected),
			})
		}
	}
	return res, nil
}

// Render produces one table per protection level, like the paper's three
// sub-figures.
func (r *Figure9Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: Stress testing selective instruction duplication with SDC-bound inputs\n")
	sb.WriteString("Paper shape: expected coverage (measured with the reference input) is high (85-99% on average),\n")
	sb.WriteString("but actual coverage under SDC-bound inputs is dramatically lower (~2.6x lower at the 70% level);\n")
	sb.WriteString("CoMD and FFT show the smallest gaps.\n\n")
	for _, level := range r.Levels {
		fmt.Fprintf(&sb, "Protection level %.0f%%:\n", level*100)
		var rows [][]string
		var expSum, actSum float64
		var n int
		for _, c := range r.Cells {
			if c.Level != level {
				continue
			}
			rows = append(rows, []string{
				c.Bench, pct(c.Expected), pct(c.Actual),
				pct(c.Overhead), fmt.Sprint(c.ProtectedInstrs),
			})
			expSum += c.Expected
			actSum += c.Actual
			n++
		}
		sb.WriteString(renderTable(
			[]string{"Benchmark", "Expected coverage", "Actual coverage", "Overhead", "Protected"}, rows))
		if n > 0 {
			fmt.Fprintf(&sb, "Average: expected %s, actual %s\n\n", pct(expSum/float64(n)), pct(actSum/float64(n)))
		}
	}
	return sb.String()
}

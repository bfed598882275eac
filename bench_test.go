package repro

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus the ablation benches DESIGN.md calls out. Each
// target runs its experiment at reduced (quick) scale on a benchmark subset
// so `go test -bench=.` finishes in minutes; cmd/experiments runs the
// full-scale versions. Custom metrics surface the experiment's headline
// number so bench output doubles as a result summary.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/prog"
)

// benchSuite builds a quick-config suite for the given benchmarks.
func benchSuite(b *testing.B, benches ...string) *experiments.Suite {
	b.Helper()
	cfg := experiments.QuickConfig()
	if len(benches) > 0 {
		cfg.Benches = benches
	}
	s, err := experiments.NewSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTable1_StaticInstructions(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		r := experiments.Table1(s)
		total = 0
		for _, row := range r.Rows {
			total += row.StaticInstrs
		}
	}
	b.ReportMetric(float64(total), "static-instrs")
}

func BenchmarkFigure1_OverallSDCRange(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder", "needle")
		r, err := experiments.Figure1(s)
		if err != nil {
			b.Fatal(err)
		}
		spread = 0
		for _, row := range r.Rows {
			spread += row.MaxSDC - row.MinSDC
		}
	}
	b.ReportMetric(spread*100, "sdc-range-pts")
}

func BenchmarkTable2_CoverageCorrelation(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder", "needle")
		r, err := experiments.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		avg = r.Avg
	}
	b.ReportMetric(avg, "avg-rho")
}

func BenchmarkFigure2_PerInstructionRange(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "comd")
		r, err := experiments.Figure2(s, "comd", 10)
		if err != nil {
			b.Fatal(err)
		}
		spread = 0
		for _, row := range r.Sampled {
			spread += row.Max - row.Min
		}
	}
	b.ReportMetric(spread*100, "instr-range-pts")
}

func BenchmarkTable3_RankStability(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
		avg = r.Avg
	}
	b.ReportMetric(avg, "avg-rho")
}

func BenchmarkTable4_PruningRatio(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		avg = experiments.Table4(s).Avg
	}
	b.ReportMetric(avg*100, "avg-prune-pct")
}

func BenchmarkTable5_SensitivityAnalysisCost(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.AvgSpeedup
	}
	b.ReportMetric(speedup, "heuristic-speedup-x")
}

func BenchmarkFigure5_BoundingSDC(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.Figure5(s)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Benches[0].Points[len(r.Benches[0].Points)-1]
		gap = last.PeppaSDC - last.BaselineSDC
	}
	b.ReportMetric(gap*100, "peppa-minus-baseline-pts")
}

func BenchmarkFigure6_HeatMaps(b *testing.B) {
	var pctile float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.Figure6(s, []string{"pathfinder"})
		if err != nil {
			b.Fatal(err)
		}
		pctile = r.Maps[0].RandomPercentile
	}
	b.ReportMetric(pctile*100, "mean-input-pctile")
}

func BenchmarkFigure7_Baseline5x(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.Rows[0].PeppaSDC - r.Rows[0].Baseline5xSDC
	}
	b.ReportMetric(gap*100, "peppa-minus-5xbaseline-pts")
}

func BenchmarkFigure8_TimeBreakdown(b *testing.B) {
	var fixedShare float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.Figure8(s)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		fixedShare = float64(last.SensitivityDyn) / float64(last.TotalDyn)
	}
	b.ReportMetric(fixedShare*100, "fixed-cost-share-pct")
}

func BenchmarkTable6_PerInputCost(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.Table6(s)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.AvgRatio
	}
	b.ReportMetric(ratio, "baseline-over-peppa-x")
}

func BenchmarkFigure9_StressTest(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.Figure9(s)
		if err != nil {
			b.Fatal(err)
		}
		loss = 0
		for _, c := range r.Cells {
			loss += c.Expected - c.Actual
		}
		loss /= float64(len(r.Cells))
	}
	b.ReportMetric(loss*100, "coverage-loss-pts")
}

// Ablation benches (DESIGN.md §5).

func BenchmarkAblation_PruningBoundaries(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.AblationPruningBoundaries(s, "pathfinder")
		if err != nil {
			b.Fatal(err)
		}
		delta = r.RhoWith - r.RhoWithout
	}
	b.ReportMetric(delta, "rho-gain-from-boundaries")
}

func BenchmarkAblation_CoverageFitness(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.AblationFitness(s, "needle")
		if err != nil {
			b.Fatal(err)
		}
		gap = r.ScoreFitnessSDC - r.CoverageFitnessSDC
	}
	b.ReportMetric(gap*100, "score-minus-coverage-pts")
}

func BenchmarkAblation_RandomWithFitness(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.AblationFitness(s, "needle")
		if err != nil {
			b.Fatal(err)
		}
		gap = r.ScoreFitnessSDC - r.RandomSamplingSDC
	}
	b.ReportMetric(gap*100, "ga-minus-random-pts")
}

func BenchmarkAblation_SensitivityTrials(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "pathfinder")
		r, err := experiments.AblationSensitivityTrials(s, "pathfinder", 30, 100)
		if err != nil {
			b.Fatal(err)
		}
		rho = r.Rho
	}
	b.ReportMetric(rho, "30v100-rank-rho")
}

// Substrate micro-benchmarks.

func BenchmarkInterp_Throughput(b *testing.B) {
	bench := prog.Build("pathfinder")
	in := bench.Encode(bench.RefInput())
	var dyn int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runGolden(b, bench, in)
		dyn = r
	}
	b.ReportMetric(float64(dyn), "dyn-instrs/op")
}

func BenchmarkCampaign_1000Trials(b *testing.B) {
	bench := prog.Build("needle")
	in := bench.Encode(bench.RefInput())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, bench, in, 1000)
	}
}

// Extension-experiment benches.

func BenchmarkExtension_PassCheck(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.PassCheck(s)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.Rows[0].ModelSDC - r.Rows[0].PassSDC
	}
	b.ReportMetric(gap*100, "model-minus-pass-pts")
}

func BenchmarkExtension_MultiBit(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.MultiBit(s)
		if err != nil {
			b.Fatal(err)
		}
		delta = r.Rows[0].Delta
	}
	b.ReportMetric(delta*100, "single-vs-double-pts")
}

func BenchmarkExtension_Propagation(b *testing.B) {
	var reach float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.Propagation(s)
		if err != nil {
			b.Fatal(err)
		}
		reach = r.Rows[0].SDCReach
	}
	b.ReportMetric(reach*100, "sdc-reach-pct")
}

func BenchmarkExtension_Strategies(b *testing.B) {
	var bestSDC float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.Strategies(s)
		if err != nil {
			b.Fatal(err)
		}
		bestSDC = 0
		for _, row := range r.Rows {
			if row.SDC > bestSDC {
				bestSDC = row.SDC
			}
		}
	}
	b.ReportMetric(bestSDC*100, "best-strategy-sdc-pct")
}

func BenchmarkExtension_OptLevel(b *testing.B) {
	var shift float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, "needle")
		r, err := experiments.OptLevel(s)
		if err != nil {
			b.Fatal(err)
		}
		shift = r.Rows[0].SDCOpt - r.Rows[0].SDCO0
	}
	b.ReportMetric(shift*100, "opt-sdc-shift-pts")
}

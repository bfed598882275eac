package experiments

import (
	"strings"
	"testing"

	"repro/internal/prog"
)

// quickSuite builds a suite on a reduced benchmark set so experiment tests
// stay fast while exercising every code path.
func quickSuite(t testing.TB, benches ...string) *Suite {
	t.Helper()
	cfg := QuickConfig()
	if len(benches) > 0 {
		cfg.Benches = benches
	}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteAdaptiveThreading(t *testing.T) {
	// Config.CITarget must reach both the search's closing campaign and the
	// baseline's per-candidate campaigns.
	cfg := QuickConfig()
	cfg.Benches = []string{"pathfinder"}
	cfg.CITarget = 0.08
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Search("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalAdaptive == nil {
		t.Fatal("suite CITarget did not reach the search's closing campaign")
	}
	if r.FinalAdaptive.Counts.Trials > cfg.OverallTrials {
		t.Fatalf("adaptive final spent %d trials, cap %d", r.FinalAdaptive.Counts.Trials, cfg.OverallTrials)
	}
	b, err := s.Baseline("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range b.History {
		if pt.SDC < 0 || pt.SDC > 1 {
			t.Fatalf("baseline candidate estimate %v outside [0,1]", pt.SDC)
		}
	}
}

func TestSuiteComposeThreading(t *testing.T) {
	// Config.Compose must reach the search and the baseline, with one
	// shared profile cache per benchmark: the baseline (which memo-depends
	// on the search) must reuse profiles the search already measured.
	cfg := QuickConfig()
	cfg.Benches = []string{"pathfinder"}
	cfg.Compose = true
	cfg.ComposeTrials = 300
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Search("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	if r.ComposeStats == nil || r.ComposeStats.Composed == 0 {
		t.Fatalf("suite Compose did not reach the search: %+v", r.ComposeStats)
	}
	if r.Distribution.Composed == nil {
		t.Fatal("search sensitivity not derived compositionally")
	}
	b, err := s.Baseline("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	if b.ComposeStats == nil || b.ComposeStats.Composed == 0 {
		t.Fatalf("suite Compose did not reach the baseline: %+v", b.ComposeStats)
	}
	// The shared per-benchmark cache means the baseline starts warm: its
	// first candidate can only miss on segments the search never profiled.
	if b.ComposeStats.Misses > 0 {
		t.Fatalf("baseline missed %d profiles despite the search's warm cache", b.ComposeStats.Misses)
	}
	if st := s.MemoStats()["compose"]; st.Misses != 1 {
		t.Fatalf("compose cache memo stats = %+v, want exactly one build", st)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	bad := QuickConfig()
	bad.Checkpoints = []int{99999}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for out-of-range checkpoint")
	}
	bad2 := QuickConfig()
	bad2.RandomInputs = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("want error for tiny config")
	}
}

func TestTable1(t *testing.T) {
	s := quickSuite(t)
	r := Table1(s)
	if len(r.Rows) != len(prog.Names()) {
		t.Fatalf("rows = %d, want one per benchmark (%d)", len(r.Rows), len(prog.Names()))
	}
	paperRows := 0
	for _, row := range r.Rows {
		if row.StaticInstrs <= 0 || row.Injectable <= 0 {
			t.Fatalf("bad row %+v", row)
		}
		// The extension kernels (stencil, spmv, nbody) have no published
		// counts; the paper's seven must carry theirs.
		if row.PaperInstrs > 0 {
			paperRows++
		}
		if row.Injectable > row.StaticInstrs {
			t.Fatalf("injectable > static in %s", row.Bench)
		}
	}
	if paperRows != 7 {
		t.Fatalf("rows with paper counts = %d, want the paper's 7", paperRows)
	}
	if !strings.Contains(r.Render(), "pathfinder") {
		t.Fatal("render missing benchmark")
	}
}

func TestFigure1AndTable2ShareStudy(t *testing.T) {
	s := quickSuite(t, "pathfinder", "fft")
	f1, err := Figure1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 2 {
		t.Fatalf("rows = %d", len(f1.Rows))
	}
	for _, row := range f1.Rows {
		if row.MinSDC > row.MaxSDC {
			t.Fatalf("range inverted in %s", row.Bench)
		}
		if row.MinSDC < 0 || row.MaxSDC > 1 {
			t.Fatalf("range out of [0,1] in %s", row.Bench)
		}
	}
	// Table 2 must reuse the cached study (same points, no recompute).
	before := s.studies.Len()
	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.studies.Len() != before {
		t.Fatal("table2 recomputed studies")
	}
	if len(t2.Rows) != 2 {
		t.Fatalf("table2 rows = %d", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if row.Rho < -1 || row.Rho > 1 {
			t.Fatalf("rho %v out of range", row.Rho)
		}
	}
	if !strings.Contains(f1.Render(), "Figure 1") || !strings.Contains(t2.Render(), "Table 2") {
		t.Fatal("renders missing titles")
	}
}

func TestFigure2AndTable3(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	f2, err := Figure2(s, "pathfinder", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Sampled) != 6 {
		t.Fatalf("sampled = %d", len(f2.Sampled))
	}
	for _, row := range f2.Sampled {
		if row.Min > row.Max {
			t.Fatalf("inverted range for instr %d", row.InstrID)
		}
	}
	t3, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 1 {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
	// The stationarity claim: positive correlation.
	if t3.Rows[0].Rho <= 0 {
		t.Fatalf("rank stability rho = %v, want positive", t3.Rows[0].Rho)
	}
	_ = f2.Render()
	_ = t3.Render()
}

func TestTable4(t *testing.T) {
	s := quickSuite(t)
	r := Table4(s)
	if len(r.Rows) != len(prog.Names()) {
		t.Fatalf("rows = %d, want one per benchmark (%d)", len(r.Rows), len(prog.Names()))
	}
	if r.Avg <= 0.1 || r.Avg >= 0.9 {
		t.Fatalf("avg pruning ratio %v implausible", r.Avg)
	}
	_ = r.Render()
}

func TestTable5(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	r, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.WithDyn >= row.WithoutDyn {
		t.Fatalf("heuristics did not reduce cost: %d vs %d", row.WithDyn, row.WithoutDyn)
	}
	if row.Speedup <= 1 {
		t.Fatalf("speedup %v", row.Speedup)
	}
	_ = r.Render()
}

func TestFigure5_7_8(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	f5, err := Figure5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Benches) != 1 {
		t.Fatalf("benches = %d", len(f5.Benches))
	}
	pts := f5.Benches[0].Points
	if len(pts) != len(s.Cfg.Checkpoints) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.PeppaSDC < 0 || p.PeppaSDC > 1 || p.BaselineSDC < 0 || p.BaselineSDC > 1 {
			t.Fatalf("point %d out of range: %+v", i, p)
		}
		if p.BudgetDyn <= 0 {
			t.Fatalf("point %d has no budget", i)
		}
		if i > 0 && p.BudgetDyn < pts[i-1].BudgetDyn {
			t.Fatal("budgets not increasing with generations")
		}
	}

	f7, err := Figure7(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 1 || f7.Rows[0].BudgetDyn <= pts[len(pts)-1].BudgetDyn/2 {
		t.Fatalf("figure7 rows = %+v", f7.Rows)
	}

	f8, err := Figure8(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 4 {
		t.Fatalf("figure8 rows = %d", len(f8.Rows))
	}
	for i := 1; i < len(f8.Rows); i++ {
		if f8.Rows[i].TotalDyn < f8.Rows[i-1].TotalDyn {
			t.Fatal("figure8 cost not monotone in generations")
		}
		if f8.Rows[i].SensitivityDyn != f8.Rows[0].SensitivityDyn {
			t.Fatal("sensitivity cost should be fixed across generations")
		}
	}
	_ = f5.Render()
	_ = f7.Render()
	_ = f8.Render()
}

// TestFigure5_7Compose: under Compose a checkpoint's campaign tally pools
// its allocation-weighted profile trials, so both figures must report the
// composed estimate, the same rate their baseline columns use.
func TestFigure5_7Compose(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"pathfinder"}
	cfg.Compose = true
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Search("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(s)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Figure7(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := f5.Benches[0].Points
	if len(pts) != len(r.Checkpoints) {
		t.Fatalf("figure5 has %d points for %d checkpoints", len(pts), len(r.Checkpoints))
	}
	// The sensitivity derivation and every checkpoint are composed.
	if got, want := r.ComposeStats.Composed, int64(1+len(r.Checkpoints)); got != want {
		t.Fatalf("%d composed estimates, want %d: checkpoints not measured compositionally", got, want)
	}
	for i := range r.Checkpoints {
		cp := &r.Checkpoints[i]
		if pts[i].PeppaSDC != cp.P {
			t.Fatalf("figure5 @%d reports %v, composed estimate %v (pooled ratio %v)",
				cp.Generation, pts[i].PeppaSDC, cp.P, cp.Counts.SDCProbability())
		}
		if cp.Generation == f7.Rows[0].CutoffGen && f7.Rows[0].PeppaSDC != cp.P {
			t.Fatalf("figure7 @%d reports %v, composed estimate %v (pooled ratio %v)",
				cp.Generation, f7.Rows[0].PeppaSDC, cp.P, cp.Counts.SDCProbability())
		}
	}
}

func TestFigure6(t *testing.T) {
	s := quickSuite(t)
	r, err := Figure6(s, []string{"pathfinder"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Maps) != 1 {
		t.Fatalf("maps = %d", len(r.Maps))
	}
	hm := r.Maps[0]
	if len(hm.SDC) != s.Cfg.HeatmapGrid || len(hm.SDC[0]) != s.Cfg.HeatmapGrid {
		t.Fatalf("grid %dx%d", len(hm.SDC), len(hm.SDC[0]))
	}
	norm := hm.Normalized()
	for _, row := range norm {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("normalized %v", v)
			}
		}
	}
	if !strings.Contains(r.Render(), "pathfinder") {
		t.Fatal("render missing map")
	}
	// Regression pin for the PercentileOfValue tie fix: the map's mean-input
	// percentile standing must agree with the midrank definition computed
	// directly from the grid. Under the old strictly-below counting, a grid
	// with heavy ties at the mean (common in sparse maps whose cells are
	// mostly 0) understated the standing.
	var all []float64
	var sum float64
	for _, row := range hm.SDC {
		for _, v := range row {
			all = append(all, v)
			sum += v
		}
	}
	mean := sum / float64(len(all))
	below, equal := 0, 0
	for _, v := range all {
		switch {
		case v < mean:
			below++
		case v == mean:
			equal++
		}
	}
	want := (float64(below) + float64(equal)/2) / float64(len(all))
	if hm.RandomPercentile != want {
		t.Fatalf("RandomPercentile = %v, want midrank standing %v", hm.RandomPercentile, want)
	}
	if hm.RandomPercentile <= 0 || hm.RandomPercentile >= 1 {
		t.Fatalf("RandomPercentile = %v, want interior standing", hm.RandomPercentile)
	}
}

func TestTable6(t *testing.T) {
	s := quickSuite(t, "needle")
	r, err := Table6(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Quick config uses 120 trials; the gap should still be >50x.
	if r.Rows[0].Ratio < 50 {
		t.Fatalf("per-input cost ratio %v too small", r.Rows[0].Ratio)
	}
	_ = r.Render()
}

func TestFigure9(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	r, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Expected < 0 || c.Expected > 1 || c.Actual < 0 || c.Actual > 1 {
			t.Fatalf("coverage out of range: %+v", c)
		}
		if c.Overhead > c.Level+0.01 {
			t.Fatalf("overhead %v exceeds level %v", c.Overhead, c.Level)
		}
	}
	_ = r.Render()
}

func TestRunUnknownID(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	if _, err := Run(s, "fig99"); err == nil {
		t.Fatal("want error for unknown experiment")
	}
	if _, err := RunAll(s, []string{"nope"}); err == nil {
		t.Fatal("want error for unknown id in RunAll")
	}
}

func TestRunAllSubset(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	report, err := RunAll(s, []string{"table4", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	// Presentation order: table1 before table4 regardless of request order.
	i1 := strings.Index(report, "Table 1:")
	i4 := strings.Index(report, "Table 4:")
	if i1 < 0 || i4 < 0 || i1 > i4 {
		t.Fatalf("report order wrong (%d, %d)", i1, i4)
	}
}

func TestSuiteDeterminism(t *testing.T) {
	run := func() string {
		s := quickSuite(t, "fft")
		r, err := Figure1(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	if run() != run() {
		t.Fatal("suite results not reproducible")
	}
}

func TestBaselineBestWithin(t *testing.T) {
	s := quickSuite(t, "fft")
	base, err := s.Baseline("fft")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.History) == 0 {
		t.Fatal("no baseline history")
	}
	// A tiny budget still yields the first input's result.
	first := BaselineBestWithin(base, 1)
	if first != base.History[0].BestSDC {
		t.Fatalf("tiny budget best = %v, want first point %v", first, base.History[0].BestSDC)
	}
	// The full budget yields the overall best.
	full := BaselineBestWithin(base, 1<<62)
	if full != base.Best.P {
		t.Fatalf("full budget best = %v, want %v", full, base.Best.P)
	}
}

func TestPassCheck(t *testing.T) {
	s := quickSuite(t, "needle")
	r, err := PassCheck(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.ModelSDC > row.UnprotectedSDC || row.PassSDC > row.UnprotectedSDC {
		t.Fatalf("protection increased SDC: %+v", row)
	}
	if row.PassOverhead <= 0 || row.PassOverhead > 1.2 {
		t.Fatalf("pass overhead %v implausible", row.PassOverhead)
	}
	if !strings.Contains(r.Render(), "needle") {
		t.Fatal("render incomplete")
	}
}

func TestMultiBit(t *testing.T) {
	s := quickSuite(t, "needle", "fft")
	r, err := MultiBit(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SingleSDC < 0 || row.SingleSDC > 1 || row.DoubleSDC < 0 || row.DoubleSDC > 1 {
			t.Fatalf("probabilities out of range: %+v", row)
		}
	}
	if !strings.Contains(r.Render(), "Multi-bit") {
		t.Fatal("render incomplete")
	}
}

func TestPropagationExperiment(t *testing.T) {
	s := quickSuite(t, "needle")
	r, err := Propagation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.SDCReach < 1.0 {
		t.Fatalf("SDC reach %v, soundness requires 1.0", row.SDCReach)
	}
	if row.MeanTaintSDC <= 0 || row.MeanTaintBenign <= 0 {
		t.Fatalf("degenerate propagation means: %+v", row)
	}
	if !strings.Contains(r.Render(), "needle") {
		t.Fatal("render incomplete")
	}
}

func TestStrategiesExperiment(t *testing.T) {
	s := quickSuite(t, "needle")
	r, err := Strategies(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 { // genetic, hillclimb, anneal, random, fuzz
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Fitness < 0 || row.SDC < 0 || row.SDC > 1 || row.Evals <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	if !strings.Contains(r.Render(), "hillclimb") || !strings.Contains(r.Render(), "fuzz") {
		t.Fatal("render incomplete")
	}
}

func TestOptLevelExperiment(t *testing.T) {
	s := quickSuite(t, "needle")
	r, err := OptLevel(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.StaticOpt > row.StaticO0 || row.DynOpt > row.DynO0 {
		t.Fatalf("optimization grew the program: %+v", row)
	}
	if !strings.Contains(r.Render(), "needle") {
		t.Fatal("render incomplete")
	}
}

func TestRunAllStructured(t *testing.T) {
	s := quickSuite(t, "pathfinder")
	results, err := RunAllStructured(s, []string{"table1", "table4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if _, ok := results["table1"].(*Table1Result); !ok {
		t.Fatalf("table1 type %T", results["table1"])
	}
	if _, err := RunAllStructured(s, []string{"nope"}); err == nil {
		t.Fatal("want error for unknown id")
	}
}

func TestRangeBar(t *testing.T) {
	bar := rangeBar(0.2, 0.6, 0.3, 1.0, 10)
	if len(bar) != 10 {
		t.Fatalf("bar length %d", len(bar))
	}
	if bar[0] != '.' || bar[9] != '.' {
		t.Fatalf("bar ends wrong: %q", bar)
	}
	if !strings.Contains(bar, "#") || !strings.Contains(bar, "=") {
		t.Fatalf("bar missing marks: %q", bar)
	}
	if rangeBar(0, 1, 0, 0, 10) != "" || rangeBar(0, 1, 0, 1, 0) != "" {
		t.Fatal("degenerate bars should be empty")
	}
	// Reference outside the scale clamps.
	edge := rangeBar(0.5, 2.0, 3.0, 1.0, 8)
	if edge[7] != '#' {
		t.Fatalf("clamped ref: %q", edge)
	}
}

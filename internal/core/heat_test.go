package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// filterHeat extracts the "heat.topk" lines of a flushed JSONL trace.
func filterHeat(trace string) []string {
	var out []string
	for _, line := range strings.Split(trace, "\n") {
		if strings.Contains(line, `"ev":"heat.topk"`) {
			out = append(out, line)
		}
	}
	return out
}

// Heat events carry only schedule-independent data (sensitivity scores and
// golden-run execution profiles), so the traced heat map must be
// byte-identical for any worker count — the same determinism contract the
// rest of the trace obeys.
func TestSearchHeatEventsWorkerEquivalence(t *testing.T) {
	names := prog.Names()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			base := DefaultOptions()
			base.Generations = 2
			base.PopSize = 4
			base.TrialsPerRep = 2
			base.FinalTrials = 20
			base.Checkpoints = []int{1, 2}

			var want []string
			for _, w := range []int{1, 4} {
				var buf bytes.Buffer
				rec := telemetry.New(telemetry.Options{Sink: &buf})
				opts := base
				opts.Workers = w
				opts.Trace = rec.Stream("search/" + name)
				if _, err := Search(b, opts, xrand.New(2026)); err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				got := filterHeat(buf.String())
				if len(got) == 0 {
					t.Fatal("no heat.topk events in the trace")
				}
				// The running top-k is mirrored as labelled gauges for the
				// /metrics endpoint.
				var sb strings.Builder
				if err := rec.PromText(&sb); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(sb.String(), "peppax_heat_instr{") {
					t.Fatalf("no heat gauges exported:\n%s", sb.String())
				}
				if want == nil {
					want = got
					continue
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("heat events differ between workers=1 and workers=%d:\n%s\nvs\n%s",
						w, strings.Join(want, "\n"), strings.Join(got, "\n"))
				}
			}
		})
	}
}

// The baseline folds bests serially, so its heat events (pure
// dynamic-execution fractions) must also be identical for any worker count.
func TestBaselineHeatEventsWorkerEquivalence(t *testing.T) {
	b := prog.Build("pathfinder")
	var want []string
	for _, w := range []int{1, 4} {
		var buf bytes.Buffer
		rec := telemetry.New(telemetry.Options{Sink: &buf})
		RandomSearch(b, BaselineOptions{
			TrialsPerInput: 20,
			MaxInputs:      4,
			Trace:          rec.Stream("baseline/pathfinder"),
			FIOptions:      FIOptions{Workers: w},
		}, xrand.New(2026))
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		got := filterHeat(buf.String())
		if len(got) == 0 {
			t.Fatal("no heat.topk events in the baseline trace")
		}
		if want == nil {
			want = got
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("baseline heat events differ between workers=1 and workers=%d:\n%s\nvs\n%s",
				w, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
}

// Negative HeatTopK disables heat events without touching the rest of the
// trace.
func TestHeatTopKNegativeDisables(t *testing.T) {
	b := prog.Build("pathfinder")
	var buf bytes.Buffer
	rec := telemetry.New(telemetry.Options{Sink: &buf})
	opts := DefaultOptions()
	opts.Generations = 2
	opts.PopSize = 4
	opts.TrialsPerRep = 2
	opts.FinalTrials = 20
	opts.HeatTopK = -1
	opts.Trace = rec.Stream("search/pathfinder")
	if _, err := Search(b, opts, xrand.New(2026)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := filterHeat(buf.String()); len(got) != 0 {
		t.Fatalf("HeatTopK=-1 still emitted %d heat events", len(got))
	}
	if !strings.Contains(buf.String(), `"ev":"search.final"`) {
		t.Fatal("disabling heat suppressed unrelated events")
	}
}

// Regression test for the stats.Normalize hi==lo fix: a benchmark whose
// measured SDC probabilities are uniform and nonzero must normalize to
// all-ones scores, not all-zeros — otherwise Equation 2 fitness collapses to
// 0 for every input and the GA loses its gradient.
func TestFitnessUniformRawProbsNotFlattened(t *testing.T) {
	b := prog.Build("pathfinder")
	raw := make([]float64, b.Prog.NumInstrs())
	for i := range raw {
		raw[i] = 0.3 // flat nonzero SDC probability on every instruction
	}
	scores := stats.Normalize(raw)
	fit, dyn := Fitness(b, scores, b.RefInput())
	if fit <= 0 {
		t.Fatalf("fitness = %v with uniform raw SDC probs; scores flattened to zero", fit)
	}
	if dyn <= 0 {
		t.Fatalf("fitness evaluation reported no dynamic instructions: %d", dyn)
	}
}

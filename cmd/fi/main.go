// Command fi runs statistical fault-injection campaigns on a benchmark —
// the LLFI-equivalent driver. It measures whole-program SDC probability for
// an input, or per-instruction SDC probabilities with -perinstr.
//
// Usage:
//
//	fi -bench hpccg [-input "3,3,3,15,17"] [-trials 1000] [-perinstr]
//	   [-top 10] [-seed 1] [-workers N] [-remote URL]
//	   [shared FI and telemetry flags]
//
// The shared flags (-workers, -adaptive, -ci-target, -compose,
// -compose-threshold, -fault-model, -heat-topk, -trace, -trace-wallclock,
// -metrics, -metrics-addr) mean the same here as in peppax and experiments.
// Every trial draws from a stream derived from -seed and its index, so
// -workers and -remote never change a tally.
//
// -adaptive switches the whole-program campaign to the adaptive stratified
// runner: injection targets are partitioned into dyn-count-ranked strata,
// trials are allocated by estimated variance, and the campaign stops once
// the composed 95% Wilson half-width falls below -ci-target (default
// 0.035, the flat 1000-trial campaign's worst-case accuracy) — so -trials
// becomes a cap, not a constant. Setting -ci-target > 0 implies -adaptive.
// Every -fault-model works with it.
//
// Without -input the benchmark's default reference input is used. -trace
// writes a deterministic JSONL trace (golden-run profile plus the campaign
// tally) on the dynamic-instruction cost clock, byte-identical for every
// worker count. -metrics prints the end-of-run counter summary;
// -metrics-addr serves the same counters and gauges live in Prometheus
// text format at /metrics (plus /healthz). In -perinstr mode a "heat.topk"
// trace event carries the -heat-topk hottest instructions (measured SDC
// score × dynamic-execution fraction). The golden run is always
// checkpointed at an auto-tuned spacing, and the "checkpoints:" line reports
// the prefix and tail re-execution that saved; tallies are bit-identical to
// from-scratch trials.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "pathfinder", "benchmark: "+strings.Join(prog.Names(), ", "))
		input    = fs.String("input", "", "comma-separated input values (default: reference input)")
		trials   = fs.Int("trials", 1000, "FI trials (whole-program mode) or trials per instruction")
		perInstr = fs.Bool("perinstr", false, "measure per-instruction SDC probabilities")
		top      = fs.Int("top", 15, "how many most-SDC-prone instructions to list (per-instruction mode)")
		seed     = fs.Uint64("seed", 1, "RNG seed")
		remote   = fs.String("remote", "", "submit the campaign to a peppaxd server at this base URL (e.g. http://127.0.0.1:9470) instead of running in-process")
		cf       = cli.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "fi:", err)
		return 1
	}

	fi, err := cf.FI()
	if err != nil {
		return fail(err)
	}
	rec, stop, err := cf.StartTelemetry("fi", stdout, stderr)
	if err != nil {
		return fail(err)
	}
	defer stop()

	b := prog.Build(*bench)
	tr := rec.Stream("fi/" + b.Name)
	in := b.RefInput()
	if *input != "" {
		parts := strings.Split(*input, ",")
		if len(parts) != len(b.Args) {
			return fail(fmt.Errorf("%s takes %d arguments, got %d", b.Name, len(b.Args), len(parts)))
		}
		in = make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fail(fmt.Errorf("bad input value %q", p))
			}
			in[i] = v
		}
		b.ClampInput(in)
	}

	if *remote != "" {
		if *perInstr || fi.Compose {
			return fail(fmt.Errorf("-remote supports whole-program flat and -adaptive campaigns only"))
		}
		return runRemote(stdout, stderr, b, in, &service.JobSpec{
			Kind:       service.KindCampaign,
			Bench:      b.Name,
			Input:      in,
			Trials:     *trials,
			Seed:       *seed,
			FaultModel: cf.FaultModel,
			Workers:    fi.Workers,
			Adaptive:   cf.Adaptive,
			CITarget:   cf.CITarget,
		}, *remote)
	}

	if *perInstr && fi.Model != nil {
		return fail(fmt.Errorf("-perinstr supports the single-bit model only"))
	}
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		return fail(err)
	}
	tr.Advance(g.DynCount)
	tr.Emit("fi.golden",
		telemetry.F("dyn", g.DynCount),
		telemetry.F("coverage", g.Coverage()),
		telemetry.F("outputs", len(g.Output)))
	fmt.Fprintf(stdout, "%s with input %v\n", b.Name, in)
	fmt.Fprintf(stdout, "golden run: %d dynamic instructions, coverage %.2f, %d output values\n\n",
		g.DynCount, g.Coverage(), len(g.Output))

	if *perInstr {
		ids := campaign.AllInstructionIDs(b.Prog)
		results := campaign.PerInstructionParallel(b.Prog, g, ids, *trials, campaign.ParallelOptions{
			Workers: fi.Workers, Seed: *seed,
		})
		var dyn int64
		var total int
		for _, r := range results {
			dyn += r.Counts.DynInstrs
			total += r.Counts.Trials
		}
		tr.Advance(dyn)
		tr.Emit("fi.perinstr",
			telemetry.F("instrs", len(ids)),
			telemetry.F("trials", total),
			telemetry.F("dyn", dyn))
		if fi.HeatTopK >= 0 {
			// Heat weights the measured per-instruction SDC score by each
			// instruction's dynamic-execution fraction — the live form of
			// the Figure 2 heat map.
			scores := stats.Normalize(campaign.PerInstructionVector(b.Prog.NumInstrs(), results))
			telemetry.EmitHeatTopK(tr, "heat.topk",
				[]telemetry.Field{telemetry.F("trials", *trials)},
				scores, g.InstrCounts, g.DynCount, fi.HeatTopK)
		}
		campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
		printCheckpointSummary(stdout, g)
		sort.Slice(results, func(a, c int) bool {
			return results[a].Counts.SDCProbability() > results[c].Counts.SDCProbability()
		})
		instrs := b.Module.Instrs()
		fmt.Fprintf(stdout, "top %d most SDC-prone static instructions (%d trials each):\n", *top, *trials)
		fmt.Fprintf(stdout, "%-8s %-10s %-10s %-8s %-8s %s\n", "ID", "SDC", "Crash", "Hang", "Execs", "Op")
		for i, r := range results {
			if i >= *top {
				break
			}
			c := r.Counts
			fmt.Fprintf(stdout, "ID%-6d %-10s %-10s %-8d %-8d %s\n",
				r.ID, pctS(c.SDCProbability()),
				pctS(float64(c.Crash)/float64(maxi(c.Trials, 1))),
				c.Hang, g.InstrCounts[r.ID], instrs[r.ID].Op)
		}
		return 0
	}

	if fi.Compose {
		e := compose.NewEstimator(b.Prog, nil, compose.Options{
			Trials:    *trials,
			Threshold: fi.ComposeThreshold,
			Workers:   fi.Workers,
			Seed:      *seed,
			Model:     fi.Model,
			Trace:     tr,
		})
		est := e.EstimateGolden(g)
		tr.Advance(est.MeasureDyn)
		part := e.Partition()
		// Direct reference campaign of the same size and fault model: the
		// composed estimate should land inside this interval (the
		// equivalence contract).
		direct := campaign.OverallParallel(b.Prog, g, *trials, campaign.ParallelOptions{
			Workers: fi.Workers, Seed: *seed, Model: fi.Model,
		}).Estimate()
		tr.Advance(direct.DynInstrs)
		tr.Emit("fi.compose",
			telemetry.F("granularity", part.Granularity),
			telemetry.F("segments", len(part.Segments)),
			telemetry.F("sdc", est.P),
			telemetry.F("lo", est.Lo),
			telemetry.F("hi", est.Hi),
			telemetry.F("measure_trials", est.MeasureTrials),
			telemetry.F("measure_dyn", est.MeasureDyn),
			telemetry.F("direct_sdc", direct.P),
			telemetry.F("direct_lo", direct.Lo),
			telemetry.F("direct_hi", direct.Hi))
		campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
		printCheckpointSummary(stdout, g)
		fmt.Fprintf(stdout, "compositional estimate over %d %s segments (%d profile trials):\n",
			len(part.Segments), part.Granularity, est.MeasureTrials)
		fmt.Fprintf(stdout, "%-22s %-8s %-10s %-20s %-8s %s\n", "Segment", "Weight", "SDC", "95% CI", "Trials", "Source")
		for _, se := range est.Segments {
			fmt.Fprintf(stdout, "%-22s %-8s %-10s [%5.2f%%, %5.2f%%]     %-8d %s\n",
				se.Segment, pctS(se.Weight), pctS(se.P), se.Lo*100, se.Hi*100, se.Trials, se.Source)
		}
		fmt.Fprintf(stdout, "\n  composed SDC: %.2f%%  (95%% CI [%.2f%%, %.2f%%])\n", est.P*100, est.Lo*100, est.Hi*100)
		fmt.Fprintf(stdout, "  direct SDC:   %.2f%%  (95%% CI [%.2f%%, %.2f%%], %d trials)\n",
			direct.P*100, direct.Lo*100, direct.Hi*100, direct.Trials)
		inside := "inside"
		if est.P < direct.Lo || est.P > direct.Hi {
			inside = "OUTSIDE"
		}
		fmt.Fprintf(stdout, "  composed estimate is %s the direct campaign's interval\n", inside)
		return 0
	}

	if fi.CITarget > 0 {
		ar := campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{
			Workers:   fi.Workers,
			Seed:      *seed,
			CITarget:  fi.CITarget,
			MaxTrials: *trials,
			Model:     fi.Model,
		})
		tr.Advance(ar.Counts.DynInstrs)
		campaign.EmitAdaptiveTelemetry(tr, "fi.adaptive", ar)
		campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
		printCheckpointSummary(stdout, g)
		printAdaptive(stdout, ar.Estimate, service.SummarizeAdaptive(ar))
		return 0
	}

	desc := modelDesc(cf.FaultModel)
	c := campaign.OverallParallel(b.Prog, g, *trials, campaign.ParallelOptions{
		Workers: fi.Workers, Seed: *seed, Model: fi.Model,
	})
	tr.Advance(c.DynInstrs)
	tr.Emit("fi.campaign", append([]telemetry.Field{
		telemetry.F("model", desc),
	}, c.Fields()...)...)
	campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
	printCheckpointSummary(stdout, g)
	printFlat(stdout, desc, c.Estimate())
	return 0
}

// runRemote submits the campaign to a peppaxd server and renders the result
// in the local output format: byte-identical to the in-process run of the
// same flags except for the local "checkpoints:" summary, which describes
// execution state the server does not report — the e2e contract CI checks.
func runRemote(stdout, stderr io.Writer, b *prog.Benchmark, in []float64, spec *service.JobSpec, base string) int {
	cl := &service.Client{Base: strings.TrimRight(base, "/")}
	res, err := cl.Submit(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(stderr, "fi:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s with input %v\n", b.Name, in)
	fmt.Fprintf(stdout, "golden run: %d dynamic instructions, coverage %.2f, %d output values\n\n",
		res.GoldenDyn, res.GoldenCoverage, res.GoldenOutputs)
	est := campaign.Estimate{Counts: res.Counts, P: res.SDC, Lo: res.Lo, Hi: res.Hi}
	if res.Adaptive != nil {
		printAdaptive(stdout, est, res.Adaptive)
	} else {
		printFlat(stdout, modelDesc(spec.FaultModel), est)
	}
	return 0
}

// printFlat renders a flat campaign's estimate; desc names the fault model.
func printFlat(w io.Writer, desc string, e campaign.Estimate) {
	fmt.Fprintf(w, "%d fault-injection trials (%s in random dynamic instruction results):\n", e.Trials, desc)
	fmt.Fprintf(w, "  SDC:    %4d  (%.2f%%, 95%% CI [%.2f%%, %.2f%%])\n", e.SDC, e.P*100, e.Lo*100, e.Hi*100)
	fmt.Fprintf(w, "  crash:  %4d  (%.2f%%)\n", e.Crash, float64(e.Crash)/float64(e.Trials)*100)
	fmt.Fprintf(w, "  hang:   %4d  (%.2f%%)\n", e.Hang, float64(e.Hang)/float64(e.Trials)*100)
	fmt.Fprintf(w, "  benign: %4d  (%.2f%%)\n", e.Benign, float64(e.Benign)/float64(e.Trials)*100)
}

// printAdaptive renders an adaptive campaign's estimate and strata summary.
func printAdaptive(w io.Writer, e campaign.Estimate, ar *service.AdaptiveSummary) {
	fmt.Fprintf(w, "%d adaptive stratified fault-injection trials (%d strata, %d converged, %d rounds, %d/%d trials saved):\n",
		e.Trials, ar.Strata, ar.Converged, ar.Rounds, ar.TrialsSaved, ar.MaxTrials)
	fmt.Fprintf(w, "  SDC estimate: %.2f%%  (95%% CI [%.2f%%, %.2f%%], target half-width %.2f%%)\n",
		e.P*100, e.Lo*100, e.Hi*100, ar.CITarget*100)
	fmt.Fprintf(w, "  crash:  %4d  hang: %4d  benign: %4d  (pooled across strata)\n",
		e.Crash, e.Hang, e.Benign)
}

// printCheckpointSummary reports how much golden-prefix replay the snapshot
// schedule saved, and how many trial tails ended early by re-joining the
// golden run; silent when the golden recorded no snapshots.
func printCheckpointSummary(w io.Writer, g *campaign.Golden) {
	st := g.CheckpointStats()
	if st.Snapshots == 0 {
		return
	}
	fmt.Fprintf(w, "checkpoints: %d snapshots every %d dynamic instructions; %d/%d trials resumed, %d prefix instructions skipped; %d trials converged, %d tail instructions skipped\n\n",
		st.Snapshots, st.Interval, st.Restored, st.Restored+st.Scratch, st.SkippedDyn, st.Converged, st.ConvergedDyn)
}

// modelDesc renders a fault-model name for campaign output lines.
func modelDesc(name string) string {
	switch fault.ModelKey(name) {
	case fault.DoubleFlip.Name():
		return "double bit flips"
	case fault.BurstFlip.Name():
		return "contiguous multi-bit burst flips"
	case fault.ValueCorrupt.Name():
		return "value-domain corruptions"
	default:
		return "single bit flips"
	}
}

func pctS(p float64) string { return fmt.Sprintf("%.1f%%", p*100) }

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

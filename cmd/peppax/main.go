// Command peppax runs the PEPPA-X SDC-bound input search on one benchmark
// (or a custom program) and reports the found input, its fault-injection-
// measured SDC probability, and the cost breakdown. With -baseline it also
// runs the random-search baseline under the same budget; with -max-sdc it
// acts as a CI reliability gate (§7.1.2).
//
// Usage:
//
//	peppax -bench pathfinder [-generations 200] [-pop 16] [-trials 1000]
//	       [-seed 1] [-workers N] [-baseline] [-checkpoints 50,100,200]
//	       [-max-sdc 0.2] [-compose-trials 1600]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	       [shared FI and telemetry flags]
//	peppax -file prog.ir -spec "n:int:4:64:8,seed:int:1:100:7"
//
// The shared flags (-workers, -adaptive, -ci-target, -compose,
// -compose-threshold, -fault-model, -heat-topk, -trace, -trace-wallclock,
// -metrics, -metrics-addr) mean the same here as in fi and experiments, and
// reach the -baseline run exactly as they reach the search.
//
// -adaptive switches the closing FI measurement (and, with -baseline, each
// baseline candidate's campaign) to the adaptive stratified runner: strata
// heat-ranked by the derived sensitivity scores, trials allocated by
// estimated variance, stopping once the composed 95% Wilson half-width
// falls below -ci-target (default 0.035) — -trials becomes the cap.
// Setting -ci-target > 0 implies -adaptive.
//
// -trace writes a deterministic JSONL event trace (per-generation GA
// progress, pipeline phase costs, FI tallies) timestamped on the virtual
// dynamic-instruction clock: the file is byte-identical for any -workers
// value. -trace-wallclock switches the trace to wall-clock timestamps —
// useful for real-time latency analysis, but the file is then marked
// "reproducible":false in its meta line and varies run to run. -metrics
// prints an end-of-run counter/gauge summary (wall times, worker-pool
// utilization), which IS schedule-dependent. -metrics-addr serves the same
// counters and gauges live in Prometheus text format at /metrics (plus a
// /healthz liveness probe) for the duration of the run. -heat-topk sizes the
// per-instruction "heat.topk" trace events emitted at search checkpoints and
// baseline bests. -cpuprofile and -memprofile write pprof profiles of the
// whole run for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peppax", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "pathfinder", "benchmark: "+strings.Join(prog.Names(), ", "))
		file        = fs.String("file", "", "textual IR file of a custom program (overrides -bench; requires -spec)")
		spec        = fs.String("spec", "", "argument spec for -file: name:kind:min:max:ref[:smallMin:smallMax],...")
		generations = fs.Int("generations", 200, "GA generations")
		pop         = fs.Int("pop", 16, "GA population size")
		trials      = fs.Int("trials", 1000, "FI trials for the final SDC measurement")
		trialsRep   = fs.Int("rep-trials", 30, "FI trials per pruning representative")
		seed        = fs.Uint64("seed", 1, "RNG seed")
		baseline    = fs.Bool("baseline", false, "also run the random+FI baseline with the same budget")
		checkpoints = fs.String("checkpoints", "", "comma-separated generations to FI-measure (e.g. 50,100,200)")
		maxSDC      = fs.Float64("max-sdc", 0, "CI gate (§7.1.2): exit non-zero if the SDC bound exceeds this fraction (0 disables)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
		composeTr   = fs.Int("compose-trials", 0, "trial budget of a full -compose profile pass (0 = default 1600)")
		cf          = cli.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "peppax:", err)
		return 1
	}

	fi, err := cf.FI()
	if err != nil {
		return fail(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "peppax: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "peppax: memprofile:", err)
			}
		}()
	}

	rec, stop, err := cf.StartTelemetry("peppax", stdout, stderr)
	if err != nil {
		return fail(err)
	}
	defer stop()

	var b *prog.Benchmark
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		b, err = prog.LoadCustom(string(src), *spec, 0)
		if err != nil {
			return fail(err)
		}
	} else {
		b = prog.Build(*bench)
	}
	opts := core.DefaultOptions()
	opts.Generations = *generations
	opts.PopSize = *pop
	opts.FinalTrials = *trials
	opts.TrialsPerRep = *trialsRep
	opts.FIOptions = fi
	opts.ComposeTrials = *composeTr
	opts.Trace = rec.Stream("search/" + b.Name)
	if opts.Compose {
		// One cache for the whole invocation, so a -baseline run reuses the
		// profiles the search already measured.
		opts.ComposeCache = compose.NewCache(0)
	}
	for _, c := range strings.Split(*checkpoints, ",") {
		if c = strings.TrimSpace(c); c != "" {
			n, err := strconv.Atoi(c)
			if err != nil {
				return fail(fmt.Errorf("bad checkpoint %q", c))
			}
			opts.Checkpoints = append(opts.Checkpoints, n)
		}
	}

	rng := xrand.New(*seed)
	fmt.Fprintf(stdout, "PEPPA-X search on %s (%s): %d generations, population %d\n\n",
		b.Name, b.Description, opts.Generations, opts.PopSize)

	res, err := core.Search(b, opts, rng)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "step 1  small FI input:        %v\n", res.SmallInput.Input)
	fmt.Fprintf(stdout, "        coverage %.2f (target %.2f), workload %d dyn instrs (reference: %d)\n",
		res.SmallInput.Coverage, res.SmallInput.TargetCoverage,
		res.SmallInput.Golden.DynCount, res.SmallInput.RefDynCount)
	fmt.Fprintf(stdout, "step 2+3 sensitivity analysis: %d representatives (%d FI sites), %d trials, %.1fM dyn instrs\n",
		res.Distribution.Representatives, b.Prog.NumInstrs(),
		res.Distribution.FITrials, float64(res.Distribution.FIDynInstrs)/1e6)
	fmt.Fprintf(stdout, "step 4+5 genetic search:       %d candidate evaluations, %.1fM dyn instrs\n\n",
		res.Evaluations, float64(res.Cost.SearchDyn)/1e6)

	fmt.Fprintf(stdout, "SDC-bound input:   %v\n", res.BestInput)
	fmt.Fprintf(stdout, "fitness score:     %.4f\n", res.BestFitness)
	f := res.Final
	fmt.Fprintf(stdout, "SDC probability:   %.2f%% (95%% CI [%.2f%%, %.2f%%]; %d/%d trials; crash %d, hang %d, benign %d)\n",
		f.P*100, f.Lo*100, f.Hi*100, f.SDC, f.Trials, f.Crash, f.Hang, f.Benign)
	if ar := res.FinalAdaptive; ar != nil {
		fmt.Fprintf(stdout, "adaptive campaign: %d strata (%d converged), %d rounds, %d/%d trials saved at CI target %.2f%%\n",
			len(ar.Strata), ar.StrataConverged(), ar.Rounds, ar.TrialsSaved(), ar.MaxTrials, ar.CITarget*100)
	}
	fmt.Fprintf(stdout, "total cost:        %.1fM dyn instrs, %v wall clock\n",
		float64(res.Cost.TotalDyn())/1e6, res.Cost.TotalTime().Round(1000000))

	if st := res.ComposeStats; st != nil {
		fmt.Fprintf(stdout, "compose cache:     %d composed estimates, %d hits, %d misses, %d re-measured (%d profile trials, %.1fM dyn instrs)\n",
			st.Composed, st.Hits, st.Misses, st.Remeasured, st.MeasureTrials, float64(st.MeasureDyn)/1e6)
	}

	for _, cp := range res.Checkpoints {
		fmt.Fprintf(stdout, "  checkpoint @%-5d SDC %.2f%%  input %v\n",
			cp.Generation, cp.P*100, cp.BestInput)
	}

	if *baseline {
		fmt.Fprintf(stdout, "\nbaseline (random inputs + %d-trial FI each, equal budget %.1fM dyn instrs):\n",
			*trials, float64(res.Cost.TotalDyn())/1e6)
		base := core.RandomSearch(b, core.BaselineOptions{
			TrialsPerInput: *trials,
			DynBudget:      res.Cost.TotalDyn(),
			ComposeCache:   opts.ComposeCache,
			Trace:          rec.Stream("baseline/" + b.Name),
			FIOptions:      opts.FIOptions,
		}, xrand.New(*seed+1))
		fmt.Fprintf(stdout, "  evaluated %d inputs (%d rejected), best SDC %.2f%% with input %v\n",
			base.Inputs, base.Rejected, base.Best.P*100, base.BestInput)
		if st := base.ComposeStats; st != nil {
			fmt.Fprintf(stdout, "  compose cache: %d composed estimates, %d hits, %d re-measured\n",
				st.Composed, st.Hits, st.Remeasured)
		}
		if base.Best.P < f.P {
			fmt.Fprintf(stdout, "  PEPPA-X bound is %.1fx higher\n", f.P/max(base.Best.P, 1e-9))
		}
	}

	if *maxSDC > 0 {
		// CI-gate mode (§7.1.2): a conservative release check. The SDC
		// bound found by the search must stay within the reliability
		// target, or the build fails.
		bound := f.P
		if bound > *maxSDC {
			fmt.Fprintf(stdout, "\nCI gate FAILED: SDC bound %.2f%% exceeds target %.2f%%\n", bound*100, *maxSDC*100)
			return 2
		}
		fmt.Fprintf(stdout, "\nCI gate passed: SDC bound %.2f%% within target %.2f%%\n", bound*100, *maxSDC*100)
	}
	return 0
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp table1,fig5,...] [-quick] [-seed N] [-benches a,b]
//	            [-workers N] [-out report.txt] [-json report.json] [-list]
//	            [-strategy genetic,fuzz] [-compose-trials 1600]
//	            [shared FI and telemetry flags]
//
// The shared flags (-workers, -adaptive, -ci-target, -compose,
// -compose-threshold, -fault-model, -heat-topk, -trace, -trace-wallclock,
// -metrics, -metrics-addr) mean the same here as in fi and peppax.
// -fault-model, -adaptive and -compose apply to the suite's searches and
// baselines; the §3 studies keep flat single-flip campaigns.
//
// Without -exp it runs the full evaluation (every table and figure in the
// paper, §3/§5/§6). -quick shrinks trial counts so the whole suite runs in
// seconds; the default configuration takes minutes.
//
// -trace writes a deterministic JSONL telemetry trace: every memoized suite
// artifact (search, baseline, study, per-instruction study) emits into its
// own keyed stream on the virtual dynamic-instruction clock, and streams are
// flushed in key order, so the file is byte-identical for any -workers value
// even though experiments run concurrently. -metrics prints the end-of-run
// counter/gauge summary (memo hits/misses, wall times, pool utilization);
// -metrics-addr serves the same counters and gauges live in Prometheus text
// format at /metrics (plus /healthz) while the suite runs. -heat-topk sizes
// the per-instruction "heat.topk" events traced at search checkpoints and
// baseline bests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expList   = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		quick     = fs.Bool("quick", false, "use the reduced quick configuration")
		seed      = fs.Uint64("seed", 0, "override the RNG seed (0 = config default)")
		benches   = fs.String("benches", "", "comma-separated benchmark subset (default: all ten)")
		out       = fs.String("out", "", "also write the report to this file")
		jsonOut   = fs.String("json", "", "also write typed results as JSON to this file")
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		composeTr = fs.Int("compose-trials", 0, "trial budget of a full -compose profile pass (0 = default 1600)")
		strategy  = fs.String("strategy", "", "comma-separated strategy subset for the strategies experiment (e.g. genetic,fuzz; default: all)")
		cf        = cli.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *benches != "" {
		cfg.Benches = splitList(*benches)
	}
	fi, err := cf.FI()
	if err != nil {
		return fail(err)
	}
	cfg.FIOptions = fi
	cfg.ComposeTrials = *composeTr
	if *strategy != "" {
		cfg.Strategies = splitList(*strategy)
	}

	rec, stop, err := cf.StartTelemetry("experiments", stdout, stderr)
	if err != nil {
		return fail(err)
	}
	defer stop()
	cfg.Recorder = rec

	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return fail(err)
	}
	var ids []string
	if *expList != "" {
		ids = splitList(*expList)
	}
	report, err := experiments.RunAll(suite, ids)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "report written to %s\n", *out)
	}
	if *jsonOut != "" {
		// Re-running is cheap: the suite caches every expensive artifact.
		results, err := experiments.RunAllStructured(suite, ids)
		if err != nil {
			return fail(err)
		}
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "JSON results written to %s\n", *jsonOut)
	}
	suite.EmitMemoStats()
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

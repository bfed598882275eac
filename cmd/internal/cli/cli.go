// Package cli is the command-line surface the fi, peppax and experiments
// tools share: the eleven FI and telemetry flags, the one rule that
// resolves them into core.FIOptions, and the telemetry setup each tool runs.
// A shared flag means the same thing in every tool.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Flags holds the shared flag values. The FI knobs bind straight to the
// embedded option set; FaultModel and Adaptive stay raw until FI resolves
// them, and CITarget keeps the raw -ci-target value for -remote.
type Flags struct {
	core.FIOptions
	FaultModel string
	Adaptive   bool

	Trace          string
	TraceWallclock bool
	Metrics        bool
	MetricsAddr    string
}

// Register defines the shared flags on fs and returns their values, filled
// in once fs parses. Where a flag's reach differs between the tools, its
// help says so.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0,
		"worker goroutines (0 = GOMAXPROCS, 1 = serial; results are identical for any value); fi: FI trials, or instructions with -perinstr; peppax: GA candidate evaluation and FI trials; experiments: concurrent experiments, GA evaluation and FI trials")
	fs.BoolVar(&f.Adaptive, "adaptive", false,
		"adaptive stratified FI for the closing measurement and baseline candidates (fi: its campaign; Figure 5 checkpoints stay flat): stop each campaign once its composed 95% CI half-width falls below -ci-target; the flat trial count becomes the spend cap")
	fs.Float64Var(&f.CITarget, "ci-target", 0,
		fmt.Sprintf("95%% CI half-width target for -adaptive (0 = default %g; setting this implies -adaptive)", campaign.DefaultCITarget))
	fs.BoolVar(&f.Compose, "compose", false,
		"compositional SDC estimation: per-segment profiles measured once, cached, and composed under each input's dynamic mix (fi: compared against a direct -trials campaign; peppax, experiments: the sensitivity derivation, checkpoints and baseline candidates)")
	fs.Float64Var(&f.ComposeThreshold, "compose-threshold", 0,
		fmt.Sprintf("profile re-measurement drift trigger for -compose (0 = default %g, negative = never re-measure)", compose.DefaultThreshold))
	fs.StringVar(&f.FaultModel, "fault-model", "",
		"fault model for the whole-program FI campaigns (peppax, experiments: checkpoints, closing measurement and baseline candidates; the sensitivity derivation and the §3 studies keep single flips): "+
			strings.Join(fault.ModelNames(), ", ")+"; empty means "+fault.DefaultModelName)
	fs.IntVar(&f.HeatTopK, "heat-topk", 0,
		fmt.Sprintf("per-instruction heat events in the trace carry this many instructions (0 = default %d, negative disables; fi: -perinstr mode only)", telemetry.DefaultHeatTopK))
	fs.StringVar(&f.Trace, "trace", "",
		"write a deterministic JSONL telemetry trace to this file (byte-identical for any worker count)")
	fs.BoolVar(&f.TraceWallclock, "trace-wallclock", false,
		"timestamp the -trace file with wall-clock nanoseconds instead of the deterministic cost clock (marks the trace non-reproducible)")
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print an end-of-run telemetry summary (counters, gauges, worker-pool utilization)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve live Prometheus metrics on this address (e.g. 127.0.0.1:9464) at /metrics, with /healthz liveness")
	return f
}

// FI resolves the FI flags into the shared option set: the fault model
// through fault.CampaignModel (an unknown name fails with the registered
// list) and -adaptive/-ci-target through core.CITargetFor. ComposeTrials
// stays with the caller.
func (f *Flags) FI() (core.FIOptions, error) {
	model, err := fault.CampaignModel(f.FaultModel)
	if err != nil {
		return core.FIOptions{}, err
	}
	o := f.FIOptions
	o.Model = model
	o.CITarget = core.CITargetFor(f.Adaptive, f.CITarget)
	return o, nil
}

// StartTelemetry builds the recorder the telemetry flags ask for — nil when
// none is set — and wires the worker-pool observer, the live metrics
// server and a SIGINT/SIGTERM flush (deferred closes never run under
// os.Exit). The returned stop closes everything and prints the -metrics
// summary to stdout; defer it. tool prefixes diagnostics on stderr.
func (f *Flags) StartTelemetry(tool string, stdout, stderr io.Writer) (*telemetry.Recorder, func(), error) {
	if f.Trace == "" && !f.Metrics && f.MetricsAddr == "" {
		return nil, func() {}, nil
	}
	var sink io.Writer
	var file *os.File
	if f.Trace != "" {
		var err error
		if file, err = os.Create(f.Trace); err != nil {
			return nil, nil, err
		}
		sink = file
	}
	rec := telemetry.New(telemetry.Options{Sink: sink, WallClock: f.TraceWallclock})
	parallel.SetObserver(telemetry.PoolObserver(rec))
	var ms *telemetry.MetricsServer
	if f.MetricsAddr != "" {
		var err error
		if ms, err = rec.ServeMetrics(f.MetricsAddr); err != nil {
			parallel.SetObserver(nil)
			if file != nil {
				file.Close()
			}
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "%s: serving metrics on http://%s/metrics\n", tool, ms.Addr())
	}
	stopSignal := telemetry.OnShutdownSignal(func(sig os.Signal) {
		rec.Close()
		if ms != nil {
			ms.Close()
		}
		os.Exit(telemetry.SignalExitCode(sig))
	})
	return rec, func() {
		stopSignal()
		if err := rec.Close(); err != nil {
			fmt.Fprintf(stderr, "%s: trace: %v\n", tool, err)
		}
		if f.Metrics {
			fmt.Fprint(stdout, rec.Summary())
		}
		if ms != nil {
			ms.Close()
		}
		parallel.SetObserver(nil)
		if file != nil {
			file.Close()
		}
	}, nil
}

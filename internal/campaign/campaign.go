// Package campaign runs statistical fault-injection campaigns over compiled
// programs, playing the role LLFI plays in the original paper (§3.1.3-3.1.4):
// golden runs, single-bit-flip trials, outcome classification into
// SDC / crash / hang / benign, whole-program SDC probability measurement
// (1000 trials in the paper) and per-instruction SDC probability measurement
// (100 trials per instruction in the paper's initial study, 30 in PEPPA-X's
// reduced sensitivity derivation).
//
// Every campaign samples by one rule: each trial draws its plan and fault
// bits from a private stream derived from the campaign seed and the trial's
// index (per-instruction campaigns: the instruction's ID). Worker count,
// batch size, shard layout and local or remote execution therefore never
// change which plans a seed samples.
package campaign

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Outcome classifies one fault-injection trial per the paper's terms (§2.2).
type Outcome uint8

// Trial outcomes.
const (
	// Benign: program output matches the golden run despite the fault.
	Benign Outcome = iota
	// SDC: output mismatch with no visible failure symptom.
	SDC
	// Crash: a hardware trap terminated the program.
	Crash
	// Hang: the run exceeded its dynamic-instruction budget.
	Hang
	// Detected: a protection mechanism (selective instruction duplication)
	// caught the corrupted value before it propagated (§6).
	Detected
)

func (o Outcome) String() string {
	switch o {
	case Benign:
		return "benign"
	case SDC:
		return "sdc"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// hangBudgetMultiplier scales the golden run's dynamic count into the
// faulty-run budget; exceeding it classifies the trial as a hang.
const hangBudgetMultiplier = 3

// hangBudgetSlack is added on top for very short programs.
const hangBudgetSlack = 10000

// Golden holds a reference (fault-free) execution of a program on an input.
type Golden struct {
	Input       []uint64
	Output      []interp.OutVal
	DynCount    int64
	InstrCounts []int64 // per static instruction
	NumInstrs   int

	// Checkpoints, when non-nil, holds golden-prefix snapshots of the run
	// (NewGoldenCheckpointed / EnsureCheckpoints); Classify then resumes
	// each trial from the nearest snapshot before its injection point
	// instead of re-interpreting the shared prefix, and ends a trial early
	// once it re-joins the golden's exact state at a later snapshot.
	// Results are bit-identical either way.
	Checkpoints *interp.Checkpoints
}

// Coverage returns the static-instruction coverage of the golden run.
func (g *Golden) Coverage() float64 {
	n := 0
	for _, c := range g.InstrCounts {
		if c > 0 {
			n++
		}
	}
	if g.NumInstrs == 0 {
		return 0
	}
	return float64(n) / float64(g.NumInstrs)
}

// ErrInvalidInput is returned by NewGolden when the fault-free run itself
// fails — such inputs are excluded from experiments per §3.1.2 ("the input
// should not lead to any reported errors or exceptions").
var ErrInvalidInput = fmt.Errorf("campaign: input fails fault-free execution")

// NewGolden executes the program fault-free with profiling and returns the
// reference run. maxDyn bounds the fault-free execution itself (0 for the
// interpreter default); inputs whose golden run traps or exceeds the bound
// are rejected with ErrInvalidInput.
func NewGolden(p *interp.Program, input []uint64, maxDyn int64) (*Golden, error) {
	return newGolden(p, input, interp.Options{Profile: true, MaxDyn: maxDyn})
}

func newGolden(p *interp.Program, input []uint64, opts interp.Options) (*Golden, error) {
	r := interp.Run(p, input, opts)
	if err := checkGolden(r.Trap, r.BudgetExceeded, r.DynCount, r.DetectedFlag, opts.MaxDyn); err != nil {
		return nil, err
	}
	return &Golden{
		Input:       input,
		Output:      r.Output,
		DynCount:    r.DynCount,
		InstrCounts: r.InstrCounts,
		NumInstrs:   p.NumInstrs(),
		Checkpoints: r.Checkpoints,
	}, nil
}

// checkGolden applies the §3.1.2 validity checks to a fault-free run: one
// that traps, exceeds maxDyn, executes no injectable instruction or raises
// sdc_detect cannot serve as a golden.
func checkGolden(trap *interp.Trap, overBudget bool, dyn int64, detected bool, maxDyn int64) error {
	switch {
	case trap != nil:
		return fmt.Errorf("%w: %v", ErrInvalidInput, trap)
	case overBudget:
		return fmt.Errorf("%w: exceeded %d dynamic instructions", ErrInvalidInput, maxDyn)
	case dyn == 0:
		return fmt.Errorf("%w: program executed no injectable instructions", ErrInvalidInput)
	case detected:
		return fmt.Errorf("%w: fault-free run raised sdc_detect (broken instrumentation)", ErrInvalidInput)
	}
	return nil
}

// GoldenFromProfile materializes a Golden from a fast-path profiled run
// (interp.Profiler), applying the same §3.1.2 validity checks as NewGolden.
// The run's borrowed state (output, counters) is copied, so the Golden
// stays valid after the profiler's next run; maxDyn is only reported in the
// budget-exceeded error. The result carries no Checkpoints — callers that
// go on to run FI campaigns attach them with EnsureCheckpoints.
func GoldenFromProfile(r *interp.ProfileRun, input []uint64, maxDyn int64) (*Golden, error) {
	if err := checkGolden(r.Trap, r.BudgetExceeded, r.DynCount, r.DetectedFlag, maxDyn); err != nil {
		return nil, err
	}
	return &Golden{
		Input:       append([]uint64(nil), input...),
		Output:      append([]interp.OutVal(nil), r.Output...),
		DynCount:    r.DynCount,
		InstrCounts: r.InstrCounts(nil),
		NumInstrs:   r.Program().NumInstrs(),
	}, nil
}

// CheckpointAuto asks NewGoldenCheckpointed to derive the snapshot spacing
// from the golden run's dynamic instruction count
// (interp.AutoCheckpointInterval) — the spacing every FI campaign the
// front ends start runs on.
const CheckpointAuto int64 = 0

// NewGoldenCheckpointed is NewGolden plus golden-prefix snapshots: every
// `interval` dynamic instructions when interval is positive, otherwise
// (CheckpointAuto) at the spacing EnsureCheckpoints derives from the run's
// dynamic count. Campaigns classified against a checkpointed golden resume
// each trial from the nearest snapshot before its injection point —
// bit-identical results for a fraction of the interpreter work.
func NewGoldenCheckpointed(p *interp.Program, input []uint64, maxDyn, interval int64) (*Golden, error) {
	if interval > 0 {
		return newGolden(p, input, interp.Options{Profile: true, MaxDyn: maxDyn, CheckpointInterval: interval})
	}
	g, err := NewGolden(p, input, maxDyn)
	if err != nil {
		return nil, err
	}
	if err := g.EnsureCheckpoints(p); err != nil {
		return nil, err
	}
	return g, nil
}

// EnsureCheckpoints attaches golden-prefix snapshots to an existing golden
// by replaying it with checkpointing enabled, at the spacing
// interp.AutoCheckpointInterval derives from DynCount. It is a no-op when
// snapshots are already attached. The replay must reproduce the original
// run exactly — a divergence means the substrate broke determinism, which
// would silently poison every trial, so it is surfaced as an error.
func (g *Golden) EnsureCheckpoints(p *interp.Program) error {
	if g.Checkpoints != nil {
		return nil
	}
	// The replay runs on the fused arrays, as every checkpointed run does,
	// while a plain golden ran on the unfused reference engine, so the
	// divergence check below doubles as a cross-engine differential test.
	interval := interp.AutoCheckpointInterval(g.DynCount)
	r := interp.Run(p, g.Input, interp.Options{Profile: true, CheckpointInterval: interval})
	if r.Trap != nil || r.BudgetExceeded || r.DynCount != g.DynCount || !interp.OutputEqual(r.Output, g.Output) {
		return fmt.Errorf("campaign: checkpoint replay diverged from the golden run")
	}
	g.Checkpoints = r.Checkpoints
	return nil
}

// CheckpointStats returns the golden's checkpoint usage counters (the zero
// value when the golden is not checkpointed).
func (g *Golden) CheckpointStats() interp.CheckpointStats {
	return g.Checkpoints.Stats()
}

// EmitCheckpointTelemetry folds a checkpoint usage sample into a telemetry
// stream: recorder counters plus one trace event. Every field derives from
// the dynamic-instruction clock (snapshot positions, per-trial prefix
// skips, converged tails), never from wall time or scheduling, so traces
// stay byte-identical across worker counts. No-op for an un-checkpointed
// sample.
func EmitCheckpointTelemetry(tr *telemetry.Stream, event string, st interp.CheckpointStats) {
	if st.Snapshots == 0 {
		return
	}
	tr.Count("checkpoint.snapshots", int64(st.Snapshots))
	tr.Count("checkpoint.restored", st.Restored)
	tr.Count("checkpoint.scratch", st.Scratch)
	tr.Count("checkpoint.skipped_dyn", st.SkippedDyn)
	tr.Count("checkpoint.converged", st.Converged)
	tr.Count("checkpoint.converged_dyn", st.ConvergedDyn)
	tr.Emit(event,
		telemetry.F("snapshots", st.Snapshots),
		telemetry.F("interval", st.Interval),
		telemetry.F("restored", st.Restored),
		telemetry.F("scratch", st.Scratch),
		telemetry.F("skipped_dyn", st.SkippedDyn),
		telemetry.F("converged", st.Converged),
		telemetry.F("converged_dyn", st.ConvergedDyn))
}

// Classify runs one faulty execution under plan on the trial machine m and
// classifies it against the golden run. It returns the outcome and the
// trial's Result, whose Output is valid only until m's next trial. A fault
// that never activated (Result.Injected false) is Benign, since the
// execution is then identical to golden. When the golden carries
// checkpoints, the trial resumes from the nearest snapshot before its
// injection point and ends at a later one if it re-joins the golden's
// state there; the Result is bit-identical to a from-scratch run either
// way.
func Classify(m *interp.Injector, g *Golden, plan *fault.Plan, rng *xrand.RNG, detector func(staticID int) bool) (Outcome, *interp.Result) {
	budget := g.DynCount*hangBudgetMultiplier + hangBudgetSlack
	r := m.Trial(g.Input, g.Checkpoints, plan, rng, budget)
	return classifyResult(g, r, detector), r
}

// classifyResult classifies an already-executed trial Result against the
// golden — the decision half of Classify, shared with the lockstep batch
// path, which classifies inside BatchRun's report callback (the Result's
// buffers are only borrowed there).
func classifyResult(g *Golden, r *interp.Result, detector func(staticID int) bool) Outcome {
	if !r.Injected {
		return Benign
	}
	if r.DetectedFlag {
		// The program's own duplication instrumentation (duplication pass)
		// caught the corruption and fail-stopped.
		return Detected
	}
	if detector != nil && detector(r.InjectedID) {
		// Selective instruction duplication compares the original and
		// duplicated results at the protected instruction, detecting any
		// corruption of its return value before it propagates.
		return Detected
	}
	if r.Trap != nil {
		return Crash
	}
	if r.BudgetExceeded {
		return Hang
	}
	if !interp.OutputEqual(g.Output, r.Output) {
		return SDC
	}
	return Benign
}

// Counts aggregates trial outcomes.
type Counts struct {
	Trials   int
	SDC      int
	Crash    int
	Hang     int
	Benign   int
	Detected int

	// DynInstrs is the total dynamic instructions executed across the
	// trials — the cost currency used to give PEPPA-X and the baseline
	// equal search budgets (§5.1) and to model analysis time (Table 5).
	DynInstrs int64
}

// Add accumulates one outcome. Unknown outcomes panic: silently counting
// them as Benign would deflate measured SDC probabilities the moment the
// Outcome enum grows, which is exactly the kind of corruption a statistical
// FI campaign cannot detect after the fact.
func (c *Counts) Add(o Outcome) {
	c.Trials++
	switch o {
	case SDC:
		c.SDC++
	case Crash:
		c.Crash++
	case Hang:
		c.Hang++
	case Detected:
		c.Detected++
	case Benign:
		c.Benign++
	default:
		panic(fmt.Sprintf("campaign: Counts.Add: unknown outcome %d", uint8(o)))
	}
}

// Merge folds another tally into c — the shard-merge primitive. Every field
// is an independent integer sum, so merging per-shard tallies in shard order
// yields exactly the tally a single process accumulates folding the same
// trials in global index order.
func (c *Counts) Merge(o Counts) {
	c.Trials += o.Trials
	c.SDC += o.SDC
	c.Crash += o.Crash
	c.Hang += o.Hang
	c.Benign += o.Benign
	c.Detected += o.Detected
	c.DynInstrs += o.DynInstrs
}

// Fields renders the tally as telemetry event fields, in a fixed order, for
// per-campaign trace events. Every value is a schedule-independent integer,
// so emitting them preserves trace determinism.
func (c Counts) Fields() []telemetry.Field {
	return []telemetry.Field{
		telemetry.F("trials", c.Trials),
		telemetry.F("sdc", c.SDC),
		telemetry.F("crash", c.Crash),
		telemetry.F("hang", c.Hang),
		telemetry.F("benign", c.Benign),
		telemetry.F("detected", c.Detected),
		telemetry.F("dyn", c.DynInstrs),
	}
}

// SDCProbability returns the fraction of trials that were SDCs — the
// paper's "SDC probability given that the fault was activated".
func (c Counts) SDCProbability() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.SDC) / float64(c.Trials)
}

// SDCInterval returns the true 95% Wilson score bounds of the SDC
// probability — the honest interval to report alongside SDCProbability.
func (c Counts) SDCInterval() (lo, hi float64) {
	return stats.WilsonInterval95(c.SDC, c.Trials)
}

// ctxDone returns ctx's cancellation channel in the form the interp layer
// polls; nil contexts and context.Background both yield a nil channel, which
// BatchRun never selects on.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxCanceled reports whether ctx is canceled, treating nil as "never".
func ctxCanceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// InstrResult is the measured SDC statistics of one static instruction.
type InstrResult struct {
	ID     int
	Counts Counts
}

// AllInstructionIDs returns the IDs 0..n-1 for a program — convenience for
// whole-program per-instruction campaigns.
func AllInstructionIDs(p *interp.Program) []int {
	ids := make([]int, p.NumInstrs())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// PerInstructionVector expands per-instruction results into a dense vector
// of SDC probabilities indexed by static ID (never-executed instructions
// get 0), the form consumed by Spearman stability analysis (Table 3).
func PerInstructionVector(numInstrs int, results []InstrResult) []float64 {
	v := make([]float64, numInstrs)
	for _, r := range results {
		v[r.ID] = r.Counts.SDCProbability()
	}
	return v
}

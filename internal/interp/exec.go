package interp

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// TrapKind classifies hardware-trap-equivalent failures. Any trap during a
// fault-injection run is classified as a Crash by the campaign layer: "the
// raising of a hardware trap or exception due to the error" (§2.2).
type TrapKind uint8

// Trap kinds.
const (
	TrapNone          TrapKind = iota
	TrapOOB                    // load/store outside mapped memory (segfault)
	TrapNull                   // load/store through the null word
	TrapDivZero                // integer divide/remainder by zero
	TrapDivOverflow            // INT_MIN / -1 (x86 #DE)
	TrapBadAlloc               // negative or over-limit allocation size
	TrapStackOverflow          // call depth exceeded
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapOOB:
		return "out-of-bounds access"
	case TrapNull:
		return "null dereference"
	case TrapDivZero:
		return "division by zero"
	case TrapDivOverflow:
		return "division overflow"
	case TrapBadAlloc:
		return "bad allocation"
	case TrapStackOverflow:
		return "stack overflow"
	default:
		return fmt.Sprintf("trap(%d)", uint8(k))
	}
}

// Trap describes a hardware-trap-equivalent failure.
type Trap struct {
	Kind TrapKind
	Fn   string // function in which the trap occurred
}

func (t *Trap) Error() string { return fmt.Sprintf("trap in %s: %s", t.Fn, t.Kind) }

// OutVal is one value the program printed; the sequence of OutVals is the
// program output whose golden-vs-faulty mismatch defines an SDC.
type OutVal struct {
	Ty   ir.Type
	Bits uint64
}

// Float returns the value as a float (for F64 outputs).
func (o OutVal) Float() float64 { return math.Float64frombits(o.Bits) }

// Int returns the value as a signed integer.
func (o OutVal) Int() int64 { return ir.SignedValue(o.Ty, o.Bits) }

// Options configures one execution.
type Options struct {
	// MaxDyn bounds the number of injectable dynamic instructions; 0 means
	// a large default. Exceeding it aborts the run with BudgetExceeded set,
	// which the campaign layer classifies as a Hang.
	MaxDyn int64
	// MaxMemWords bounds total memory in 8-byte words (default 1<<24).
	MaxMemWords int
	// MaxDepth bounds the call stack (default 512 frames).
	MaxDepth int
	// Profile enables per-static-instruction execution counting.
	Profile bool
	// Plan, when non-nil, injects one single-bit fault during the run.
	Plan *fault.Plan
	// FaultRNG resolves a deferred bit choice (fault.Plan.BitPending) at
	// injection time, once the target instruction's width is known.
	FaultRNG *xrand.RNG
	// TrackPropagation enables dynamic taint tracking of the injected
	// fault: the corrupted value and everything data-dependent on it is
	// traced through registers, memory, calls and output, yielding the
	// Result's Propagation statistics (the raw material of §7.1.1-style
	// error-propagation modelling). Implicit flows are not propagated, but
	// tainted branch decisions are counted.
	TrackPropagation bool
	// CheckpointInterval, when positive, records a Snapshot of the complete
	// machine state at the first basic-block entry at least
	// CheckpointInterval dynamic instructions after the previous snapshot
	// (the first: after the start). The snapshots, and how the run
	// returned, are kept in Result.Checkpoints; RunWithCheckpoints uses them
	// to resume later fault-injection trials past the shared golden prefix,
	// and the trial machine to end trials that re-join the golden run
	// early. Combining a CheckpointInterval with a fault Plan panics:
	// snapshots must capture fault-free state.
	CheckpointInterval int64
	// Fused executes the superinstruction code arrays instead of the
	// unfused ones. The generic engine dispatches each fused slot
	// sub-instruction by sub-instruction — the dyn clock, injection points
	// (including mid-pair targets), traps, budget ordering and taint
	// propagation are bit-identical to the unfused array; only dispatch
	// count changes. Snapshots recorded by a fused run carry fused pcs and
	// resume on the fused engine automatically.
	Fused bool
	// Done, when non-nil, is a cooperative cancellation signal (a
	// context.Context's Done channel). BatchRun polls it at checkpoint
	// boundaries: once closed, the shared trunk suspends at its next
	// boundary and no further trials are launched — trials already reported
	// stay valid, the remaining ones are never reported. A nil channel (the
	// context.Background case) is never polled and costs nothing. The
	// single-run entry points ignore Done; campaign loops check between
	// trials instead.
	Done <-chan struct{}
}

const (
	defaultMaxDyn      = int64(1) << 40
	defaultMaxMemWords = 1 << 24
	defaultMaxDepth    = 512
)

// Result is the outcome of one execution.
type Result struct {
	// Ret is the entry function's return value (0 for void).
	Ret uint64
	// Output is the printed value sequence.
	Output []OutVal
	// DynCount is the number of injectable dynamic instructions executed.
	DynCount int64
	// Trap is non-nil if the run trapped; runs share it, so it is read-only.
	Trap *Trap
	// BudgetExceeded reports that MaxDyn was hit (hang classification).
	BudgetExceeded bool
	// InstrCounts is the per-static-instruction execution count vector
	// (only when Options.Profile was set).
	InstrCounts []int64
	// Injected reports whether the fault plan's target was reached.
	Injected bool
	// InjectedID is the static instruction that received the fault.
	InjectedID int
	// InjectedBit is the bit position that was flipped.
	InjectedBit uint8
	// DetectedFlag reports that the program's protection instrumentation
	// (the duplication pass) called sdc_detect during the run.
	DetectedFlag bool
	// Propagation carries taint-tracking statistics (only when
	// Options.TrackPropagation was set).
	Propagation *PropagationStats
	// Checkpoints holds the golden-prefix snapshots recorded during the run
	// (only when Options.CheckpointInterval was positive).
	Checkpoints *Checkpoints
}

// PropagationStats summarizes how an injected fault propagated.
type PropagationStats struct {
	// TaintedDyn counts dynamic instructions that produced a corrupted
	// (data-dependent-on-the-fault) value.
	TaintedDyn int64
	// TaintedStatic counts distinct static instructions that ever produced
	// a corrupted value.
	TaintedStatic int
	// TaintedMemWrites counts stores of corrupted values (or through
	// corrupted pointers).
	TaintedMemWrites int64
	// TaintedBranches counts conditional branches whose condition was
	// corrupted — the legal-but-wrong-branch events of the fault model.
	TaintedBranches int64
	// WildStores counts stores whose ADDRESS was corrupted: the value
	// landed at an unintended location and the intended location silently
	// kept stale data, which forward taint cannot see. Any SDC without a
	// tainted output or branch must involve a wild store.
	WildStores int64
	// TaintedOutputs counts printed values that were corrupted.
	TaintedOutputs int
}

// Coverage returns the fraction of injectable static instructions executed
// at least once. Requires a profiled run.
func (r *Result) Coverage(numInstrs int) float64 {
	if r.InstrCounts == nil || numInstrs == 0 {
		return 0
	}
	n := 0
	for _, c := range r.InstrCounts {
		if c > 0 {
			n++
		}
	}
	return float64(n) / float64(numInstrs)
}

// OutputEqual reports whether two output sequences are identical — the SDC
// test between golden and faulty runs.
func OutputEqual(a, b []OutVal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// frame is one call-stack entry: a window [regOff, regOff+nSlots) into the
// exec's register/taint slabs plus the program point to resume at. Frames
// hold offsets rather than slices so that slab reallocation cannot leave a
// frame pointing at stale storage and so the whole stack snapshots with a
// value copy.
type frame struct {
	fi      int32 // index into Program.funcs
	pc      int32 // resume pc; kept current only while the frame is suspended
	regOff  int32 // first slab slot of this frame's register window
	nSlots  int32
	memBase int64 // memTop at entry, restored on return
}

// initialSlabSlots sizes the register slab of a fresh exec; it grows
// geometrically on demand.
const initialSlabSlots = 256

// exec is the per-run machine state.
type exec struct {
	p       *Program
	mem     []uint64
	memTop  int64
	maxMem  int64
	maxDep  int
	dyn     int64
	maxDyn  int64
	counts  []int64
	profile bool

	// Explicit call stack. Register windows live in regSlab (taintSlab when
	// tracking) below slabTop; returning a frame just lowers slabTop, so
	// call storage is reused instead of allocated per call.
	frames    []frame
	regSlab   []uint64
	taintSlab []bool
	slabTop   int

	plan     *fault.Plan
	occSeen  int64
	injected bool
	injID    int32
	injBit   uint8
	rng      *xrand.RNG

	output   []OutVal
	trap     *Trap
	budget   bool
	detected bool
	moveBuf  []uint64

	// Block-granular profiling state (fast path only; see fastprofile.go).
	// blockCounts is the CounterLen()-sized block/edge counter space; overlay
	// lists static instruction ids executed by partially-completed blocks,
	// fused slots or move lists at abort, each worth +1 over the block-derived
	// count.
	blockCounts []int64
	overlay     []int32

	// fusedExec selects the fused superinstruction code arrays in run().
	// Restoring a Snapshot overwrites it with the engine the snapshot's pcs
	// belong to.
	fusedExec bool

	// Golden-prefix checkpointing (nil / maxInt unless the run was started
	// with Options.CheckpointInterval). dirty tracks written memory pages so
	// snapshots can share unchanged pages with their predecessor.
	ckpt     *Checkpoints
	nextCkpt int64
	dirty    []bool

	// Trial-tail snapshot comparisons (converge.go); conv.at is
	// math.MaxInt64 unless a trial tail armed it.
	conv convergence

	// Batch-execution hooks (see batch.go). onBoundary, when non-nil,
	// replaces snapshot recording at armed instruction boundaries
	// (dyn >= nextCkpt): the batch trunk captures COW forks there and batch
	// trials pause once their fault has fired. Returning false suspends the
	// run with paused set and the frame stack in a resumable state.
	onBoundary func() bool
	paused     bool

	// Taint tracking state (nil unless Options.TrackPropagation).
	taintMem     []bool
	taintStatic  []bool
	taintStats   *PropagationStats
	retTaint     bool
	taintMoveBuf []bool
}

func newExec(p *Program, opts Options) *exec {
	e := &exec{
		p:         p,
		mem:       make([]uint64, 4096),
		memTop:    1, // word 0 is the null page
		maxMem:    int64(opts.MaxMemWords),
		maxDep:    opts.MaxDepth,
		maxDyn:    opts.MaxDyn,
		plan:      opts.Plan,
		rng:       opts.FaultRNG,
		frames:    make([]frame, 0, 8),
		regSlab:   make([]uint64, initialSlabSlots),
		nextCkpt:  math.MaxInt64,
		fusedExec: opts.Fused,
		conv:      convergence{at: math.MaxInt64},
	}
	if e.maxMem <= 0 {
		e.maxMem = defaultMaxMemWords
	}
	if e.maxDep <= 0 {
		e.maxDep = defaultMaxDepth
	}
	if e.maxDyn <= 0 {
		e.maxDyn = defaultMaxDyn
	}
	if opts.Profile {
		e.profile = true
		e.counts = make([]int64, p.numInstrs)
	}
	if opts.TrackPropagation {
		e.taintStats = &PropagationStats{}
		e.taintStatic = make([]bool, p.numInstrs)
		e.taintMem = make([]bool, len(e.mem))
		e.taintSlab = make([]bool, len(e.regSlab))
	}
	return e
}

func (e *exec) finish(ret uint64) *Result {
	return &Result{
		Ret:            ret,
		Output:         e.output,
		DynCount:       e.dyn,
		Trap:           e.trap,
		BudgetExceeded: e.budget,
		InstrCounts:    e.counts,
		Injected:       e.injected,
		InjectedID:     int(e.injID),
		InjectedBit:    e.injBit,
		DetectedFlag:   e.detected,
		Propagation:    e.taintStats,
		Checkpoints:    e.ckpt,
	}
}

// Run executes the program entry function with the given argument slot
// values. It never panics on program-level failures; traps, hangs and
// injected faults are reported in the Result.
func Run(p *Program, args []uint64, opts Options) *Result {
	e := newExec(p, opts)
	if opts.CheckpointInterval > 0 {
		if opts.Plan != nil {
			panic("interp: CheckpointInterval with a fault plan — snapshots must capture fault-free state")
		}
		e.ckpt = &Checkpoints{prog: p, interval: opts.CheckpointInterval}
		e.nextCkpt = opts.CheckpointInterval
		e.dirty = make([]bool, pageCount(int64(len(e.mem))))
	}
	entry := p.funcs[p.entry]
	if len(args) != entry.nParams {
		panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
	}
	e.pushFrame(p.entry)
	copy(e.regSlab[:len(args)], args)
	ret, ok := e.run()
	if ok && e.ckpt != nil {
		e.ckpt.end = &goldenEnd{
			dyn: e.dyn, ret: ret, output: append([]OutVal(nil), e.output...),
			detected: e.detected, maxMem: e.maxMem, maxDep: e.maxDep,
		}
	}
	return e.finish(ret)
}

// pushFrame claims a zeroed register window for funcs[fi] and pushes its
// frame. Callers copy arguments into the window afterwards; note the slabs
// may have been reallocated, so caller-held windows must be re-derived.
func (e *exec) pushFrame(fi int32) {
	cf := e.p.funcs[fi]
	if need := e.slabTop + cf.nSlots; need > len(e.regSlab) {
		e.growSlab(need)
	}
	base := e.slabTop
	clear(e.regSlab[base : base+cf.nSlots])
	if e.taintSlab != nil {
		clear(e.taintSlab[base : base+cf.nSlots])
	}
	e.slabTop = base + cf.nSlots
	e.frames = append(e.frames, frame{
		fi: fi, regOff: int32(base), nSlots: int32(cf.nSlots), memBase: e.memTop,
	})
}

// growSlab grows the register (and taint) slabs to at least need slots,
// preserving live contents.
func (e *exec) growSlab(need int) {
	sz := len(e.regSlab) * 2
	if sz < need {
		sz = need
	}
	rs := make([]uint64, sz)
	copy(rs, e.regSlab[:e.slabTop])
	e.regSlab = rs
	if e.taintSlab != nil {
		ts := make([]bool, sz)
		copy(ts, e.taintSlab[:e.slabTop])
		e.taintSlab = ts
	}
}

// growMem grows e.mem to at least n words in one allocation, keeping the
// taint shadow and the dirty-page map sized with it.
func (e *exec) growMem(n int64) {
	sz := int64(len(e.mem)) * 2
	if sz < n {
		sz = n
	}
	m := make([]uint64, sz)
	copy(m, e.mem)
	e.mem = m
	if e.taintMem != nil {
		t := make([]bool, sz)
		copy(t, e.taintMem)
		e.taintMem = t
	}
	if e.dirty != nil {
		d := make([]bool, pageCount(sz))
		copy(d, e.dirty)
		e.dirty = d
	}
}

// result records the production of a value by static instruction id,
// applying the fault plan when the target dynamic instance is reached.
// It returns the (possibly corrupted) value and false when the run must
// abort (dynamic budget exceeded).
func (e *exec) result(id int32, ty ir.Type, v uint64) (uint64, bool) {
	e.dyn++
	if e.dyn > e.maxDyn {
		e.budget = true
		return v, false
	}
	if e.profile {
		e.counts[id]++
	}
	if e.plan != nil && !e.injected {
		hit := false
		switch e.plan.Mode {
		case fault.ModeDynamic:
			hit = e.dyn == e.plan.TargetDyn
		case fault.ModeStatic:
			if int(id) == e.plan.StaticID {
				e.occSeen++
				hit = e.occSeen == e.plan.Occurrence
			}
		}
		if hit {
			var bit uint8
			if m := e.plan.Model; m != nil {
				// Pluggable model path: the model owns the corruption. Bit
				// stays zero for reporting; determinism still holds because
				// Apply draws only from the per-trial stream.
				if e.rng == nil {
					panic("interp: fault plan with a model but no FaultRNG")
				}
				v = m.Apply(ty, v, e.rng)
			} else {
				bit = e.plan.Bit
				if e.plan.BitPending() {
					if e.rng == nil {
						panic("interp: fault plan with pending bit but no FaultRNG")
					}
					bit = fault.RandomBit(e.rng, ty)
				}
				v = fault.Flip(ty, v, bit)
				if e.plan.SecondBitPending() {
					if second, ok := fault.RandomSecondBit(e.rng, ty, bit); ok {
						v = fault.Flip(ty, v, second)
					}
				} else if sb := e.plan.SecondBit; sb > 0 {
					// A concrete second bit equal to the first would re-flip
					// and cancel the fault; skip it like the pending path.
					if second := uint8(sb - 1); second != bit {
						v = fault.Flip(ty, v, second)
					}
				}
			}
			e.injected = true
			e.injID = id
			e.injBit = bit
		}
	}
	return v, true
}

func get(regs, consts []uint64, r ref) uint64 {
	if r >= 0 {
		return regs[r]
	}
	return consts[-r-1]
}

// taintOf reads the taint of an operand ref (constants are never tainted).
func taintOf(taint []bool, r ref) bool { return r >= 0 && taint[r] }

// noteTaint records that static instruction id produced a corrupted value.
func (e *exec) noteTaint(id int32) {
	e.taintStats.TaintedDyn++
	if !e.taintStatic[id] {
		e.taintStatic[id] = true
		e.taintStats.TaintedStatic++
	}
}

// applyMoves performs the parallel phi copies for a CFG edge.
func (e *exec) applyMoves(moves []move, regs, consts []uint64, taint []bool) bool {
	if len(moves) == 0 {
		return true
	}
	if cap(e.moveBuf) < len(moves) {
		e.moveBuf = make([]uint64, len(moves))
	}
	buf := e.moveBuf[:len(moves)]
	for i, mv := range moves {
		buf[i] = get(regs, consts, mv.src)
	}
	track := taint != nil
	if track {
		if cap(e.taintMoveBuf) < len(moves) {
			e.taintMoveBuf = make([]bool, len(moves))
		}
		tb := e.taintMoveBuf[:len(moves)]
		for i, mv := range moves {
			tb[i] = taintOf(taint, mv.src)
		}
		for i, mv := range moves {
			preInj := e.injected
			v, ok := e.result(mv.phiID, mv.ty, buf[i])
			if !ok {
				return false
			}
			regs[mv.dst] = v
			t := tb[i] || (e.injected && !preInj)
			taint[mv.dst] = t
			if t {
				e.noteTaint(mv.phiID)
			}
		}
		return true
	}
	for i, mv := range moves {
		v, ok := e.result(mv.phiID, mv.ty, buf[i])
		if !ok {
			return false
		}
		regs[mv.dst] = v
	}
	return true
}

// checkAddr validates a memory word address for load/store.
func (e *exec) checkAddr(cf *compiledFunc, addr uint64) bool {
	if addr == 0 {
		e.trap = &cf.traps[TrapNull]
		return false
	}
	if addr >= uint64(e.memTop) {
		e.trap = &cf.traps[TrapOOB]
		return false
	}
	return true
}

// run drives the dispatch loop over the explicit frame stack from the
// current machine state (at least one frame pushed, possibly restored from
// a Snapshot) until the entry frame returns. It returns (retValue, ok); on
// !ok the run aborted (trap or budget), recorded in e.
func (e *exec) run() (uint64, bool) {
	track := e.taintStats != nil

	// Locals caching the active frame; re-derived via reenter on every
	// push/pop and whenever the slabs are reallocated.
	var (
		fr     *frame
		cf     *compiledFunc
		regs   []uint64
		taint  []bool
		consts []uint64
		code   []inst
		pc     int32
	)
	reenter := func() {
		fr = &e.frames[len(e.frames)-1]
		cf = e.p.funcs[fr.fi]
		regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
		if track {
			taint = e.taintSlab[fr.regOff : fr.regOff+fr.nSlots]
		}
		consts = cf.consts
		if e.fusedExec {
			code = cf.fused
		} else {
			code = cf.code
		}
		pc = fr.pc
	}
	reenter()

	for {
		if e.dyn >= e.nextCkpt {
			// Instruction boundaries are the only points where the cached pc
			// and the frame stack describe a resumable state.
			fr.pc = pc
			if e.onBoundary != nil {
				if !e.onBoundary() {
					e.paused = true
					return 0, false
				}
			} else if e.atBlockEntry(cf, pc) {
				e.takeSnapshot()
			}
		}
		in := &code[pc]
		switch in.op {
		case ir.OpBr:
			if !e.applyMoves(in.movesA, regs, consts, taint) {
				return 0, false
			}
			pc = in.jumpA
			continue
		case ir.OpCondBr:
			if track && taintOf(taint, in.a) {
				e.taintStats.TaintedBranches++
			}
			if get(regs, consts, in.a)&1 != 0 {
				if !e.applyMoves(in.movesA, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpA
			} else {
				if !e.applyMoves(in.movesB, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpB
			}
			continue
		case ir.OpRet:
			var rv uint64
			if cf.retTy == ir.Void {
				e.retTaint = false
			} else {
				rv = get(regs, consts, in.a)
				if track {
					e.retTaint = taintOf(taint, in.a)
				}
			}
			// Pop: stack memory and the register window are reclaimed by
			// lowering the watermarks.
			e.memTop = fr.memBase
			e.slabTop = int(fr.regOff)
			e.frames = e.frames[:len(e.frames)-1]
			if len(e.frames) == 0 {
				return rv, true
			}
			reenter()
			// pc is the caller's suspended OpCall; complete it with the
			// callee's return value.
			cin := &code[pc]
			if cin.dst < 0 { // void call
				pc++
				continue
			}
			preInj := e.injected
			v, ok := e.result(cin.id, cin.ty, rv)
			if !ok {
				return 0, false
			}
			regs[cin.dst] = v
			if track {
				t := e.retTaint || (e.injected && !preInj)
				taint[cin.dst] = t
				if t {
					e.noteTaint(cin.id)
				}
			}
			pc++
			continue

		// Fused superinstructions (fusedExec runs only). Each handler
		// replays its pair sub-instruction by sub-instruction — result()
		// per value, taint per operand set, traps and dirty marks in
		// source order — so injections landing on either half (including
		// mid-pair dynamic targets) behave exactly as on the unfused array.
		case opFusedCmpBr:
			var tIn bool
			if track {
				tIn = taintOf(taint, in.a) || taintOf(taint, in.b)
			}
			v := evalCmp(in.op1, in.srcTy, get(regs, consts, in.a), get(regs, consts, in.b))
			preInj := e.injected
			v, ok := e.result(in.id, in.ty, v)
			if !ok {
				return 0, false
			}
			regs[in.dst] = v
			if track {
				t := tIn || (e.injected && !preInj)
				taint[in.dst] = t
				if t {
					e.noteTaint(in.id)
					e.taintStats.TaintedBranches++
				}
			}
			if v&1 != 0 {
				if !e.applyMoves(in.movesA, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpA
			} else {
				if !e.applyMoves(in.movesB, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpB
			}
			continue

		case opFusedLoadArith:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf, addr) {
				return 0, false
			}
			var tIn bool
			if track {
				tIn = taintOf(taint, in.a) || e.taintMem[addr]
			}
			v := ir.CanonInt(in.ty, e.mem[addr])
			preInj := e.injected
			v, ok := e.result(in.id, in.ty, v)
			if !ok {
				return 0, false
			}
			regs[in.dst] = v
			if track {
				t := tIn || (e.injected && !preInj)
				taint[in.dst] = t
				if t {
					e.noteTaint(in.id)
				}
			}
			var tIn2 bool
			if track {
				tIn2 = taintOf(taint, in.a2) || taintOf(taint, in.b2)
			}
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			preInj = e.injected
			v2, ok = e.result(in.id2, in.ty2, v2)
			if !ok {
				return 0, false
			}
			regs[in.dst2] = v2
			if track {
				t := tIn2 || (e.injected && !preInj)
				taint[in.dst2] = t
				if t {
					e.noteTaint(in.id2)
				}
			}
			pc++
			continue

		case opFusedArithLoad:
			var tIn bool
			if track {
				tIn = taintOf(taint, in.a) || taintOf(taint, in.b)
			}
			v := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			preInj := e.injected
			v, ok := e.result(in.id, in.ty, v)
			if !ok {
				return 0, false
			}
			regs[in.dst] = v
			if track {
				t := tIn || (e.injected && !preInj)
				taint[in.dst] = t
				if t {
					e.noteTaint(in.id)
				}
			}
			addr := get(regs, consts, in.a2)
			if !e.checkAddr(cf, addr) {
				return 0, false
			}
			var tIn2 bool
			if track {
				tIn2 = taintOf(taint, in.a2) || e.taintMem[addr]
			}
			v2 := ir.CanonInt(in.ty2, e.mem[addr])
			preInj = e.injected
			v2, ok = e.result(in.id2, in.ty2, v2)
			if !ok {
				return 0, false
			}
			regs[in.dst2] = v2
			if track {
				t := tIn2 || (e.injected && !preInj)
				taint[in.dst2] = t
				if t {
					e.noteTaint(in.id2)
				}
			}
			pc++
			continue

		case opFusedArithStore:
			var tIn bool
			if track {
				tIn = taintOf(taint, in.a) || taintOf(taint, in.b)
			}
			v := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			preInj := e.injected
			v, ok := e.result(in.id, in.ty, v)
			if !ok {
				return 0, false
			}
			regs[in.dst] = v
			if track {
				t := tIn || (e.injected && !preInj)
				taint[in.dst] = t
				if t {
					e.noteTaint(in.id)
				}
			}
			addr := get(regs, consts, in.b2)
			if !e.checkAddr(cf, addr) {
				return 0, false
			}
			e.mem[addr] = get(regs, consts, in.a2)
			if e.dirty != nil {
				e.dirty[addr>>pageShift] = true
			}
			if track {
				tVal := taintOf(taint, in.a2)
				tPtr := taintOf(taint, in.b2)
				e.taintMem[addr] = tVal || tPtr
				if tVal || tPtr {
					e.taintStats.TaintedMemWrites++
				}
				if tPtr {
					e.taintStats.WildStores++
				}
			}
			pc++
			continue

		case opFusedArithArith:
			var tIn bool
			if track {
				tIn = taintOf(taint, in.a) || taintOf(taint, in.b)
			}
			v := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			preInj := e.injected
			v, ok := e.result(in.id, in.ty, v)
			if !ok {
				return 0, false
			}
			regs[in.dst] = v
			if track {
				t := tIn || (e.injected && !preInj)
				taint[in.dst] = t
				if t {
					e.noteTaint(in.id)
				}
			}
			var tIn2 bool
			if track {
				tIn2 = taintOf(taint, in.a2) || taintOf(taint, in.b2)
			}
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			preInj = e.injected
			v2, ok = e.result(in.id2, in.ty2, v2)
			if !ok {
				return 0, false
			}
			regs[in.dst2] = v2
			if track {
				t := tIn2 || (e.injected && !preInj)
				taint[in.dst2] = t
				if t {
					e.noteTaint(in.id2)
				}
			}
			pc++
			continue
		}

		var v uint64
		var tIn bool
		if track && in.nargs > 0 {
			tIn = taintOf(taint, in.a)
			if in.nargs > 1 {
				tIn = tIn || taintOf(taint, in.b)
			}
			if in.nargs > 2 {
				tIn = tIn || taintOf(taint, in.c)
			}
		}
		switch in.op {
		case ir.OpAdd:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)+get(regs, consts, in.b))
		case ir.OpSub:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)-get(regs, consts, in.b))
		case ir.OpMul:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)*get(regs, consts, in.b))
		case ir.OpSDiv, ir.OpSRem:
			x := ir.SignedValue(in.ty, get(regs, consts, in.a))
			y := ir.SignedValue(in.ty, get(regs, consts, in.b))
			if y == 0 {
				e.trap = &cf.traps[TrapDivZero]
				return 0, false
			}
			minInt := int64(math.MinInt64)
			if in.ty == ir.I32 {
				minInt = math.MinInt32
			}
			if x == minInt && y == -1 {
				e.trap = &cf.traps[TrapDivOverflow]
				return 0, false
			}
			if in.op == ir.OpSDiv {
				v = ir.CanonInt(in.ty, uint64(x/y))
			} else {
				v = ir.CanonInt(in.ty, uint64(x%y))
			}
		case ir.OpShl:
			sh := get(regs, consts, in.b) & uint64(in.ty.Bits()-1)
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)<<sh)
		case ir.OpLShr:
			sh := get(regs, consts, in.b) & uint64(in.ty.Bits()-1)
			v = get(regs, consts, in.a) >> sh // operands canonical: high bits clear
		case ir.OpAShr:
			sh := get(regs, consts, in.b) & uint64(in.ty.Bits()-1)
			v = ir.CanonInt(in.ty, uint64(ir.SignedValue(in.ty, get(regs, consts, in.a))>>sh))
		case ir.OpAnd:
			v = get(regs, consts, in.a) & get(regs, consts, in.b)
		case ir.OpOr:
			v = get(regs, consts, in.a) | get(regs, consts, in.b)
		case ir.OpXor:
			v = get(regs, consts, in.a) ^ get(regs, consts, in.b)
		case ir.OpFAdd:
			v = math.Float64bits(math.Float64frombits(get(regs, consts, in.a)) + math.Float64frombits(get(regs, consts, in.b)))
		case ir.OpFSub:
			v = math.Float64bits(math.Float64frombits(get(regs, consts, in.a)) - math.Float64frombits(get(regs, consts, in.b)))
		case ir.OpFMul:
			v = math.Float64bits(math.Float64frombits(get(regs, consts, in.a)) * math.Float64frombits(get(regs, consts, in.b)))
		case ir.OpFDiv:
			v = math.Float64bits(math.Float64frombits(get(regs, consts, in.a)) / math.Float64frombits(get(regs, consts, in.b)))
		case ir.OpICmpEQ:
			v = b2u(get(regs, consts, in.a) == get(regs, consts, in.b))
		case ir.OpICmpNE:
			v = b2u(get(regs, consts, in.a) != get(regs, consts, in.b))
		case ir.OpICmpSLT:
			v = b2u(icmpOperands(in, regs, consts, func(x, y int64) bool { return x < y }))
		case ir.OpICmpSLE:
			v = b2u(icmpOperands(in, regs, consts, func(x, y int64) bool { return x <= y }))
		case ir.OpICmpSGT:
			v = b2u(icmpOperands(in, regs, consts, func(x, y int64) bool { return x > y }))
		case ir.OpICmpSGE:
			v = b2u(icmpOperands(in, regs, consts, func(x, y int64) bool { return x >= y }))
		case ir.OpFCmpOEQ:
			x, y := fops(in, regs, consts)
			v = b2u(x == y)
		case ir.OpFCmpONE:
			x, y := fops(in, regs, consts)
			v = b2u(x < y || x > y)
		case ir.OpFCmpOLT:
			x, y := fops(in, regs, consts)
			v = b2u(x < y)
		case ir.OpFCmpOLE:
			x, y := fops(in, regs, consts)
			v = b2u(x <= y)
		case ir.OpFCmpOGT:
			x, y := fops(in, regs, consts)
			v = b2u(x > y)
		case ir.OpFCmpOGE:
			x, y := fops(in, regs, consts)
			v = b2u(x >= y)
		case ir.OpTrunc, ir.OpZExt:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a))
		case ir.OpSExt:
			v = ir.CanonInt(in.ty, uint64(ir.SignedValue(in.srcTy, get(regs, consts, in.a))))
		case ir.OpSIToFP:
			v = math.Float64bits(float64(ir.SignedValue(in.srcTy, get(regs, consts, in.a))))
		case ir.OpFPToSI:
			v = fpToSI(in.ty, math.Float64frombits(get(regs, consts, in.a)))
		case ir.OpSelect:
			if get(regs, consts, in.a)&1 != 0 {
				v = get(regs, consts, in.b)
			} else {
				v = get(regs, consts, in.c)
			}
		case ir.OpAlloca:
			count := int64(get(regs, consts, in.a))
			if count < 0 || count > e.maxMem || e.memTop+count > e.maxMem {
				e.trap = &cf.traps[TrapBadAlloc]
				return 0, false
			}
			base := e.memTop
			e.memTop += count
			if int64(len(e.mem)) < e.memTop {
				e.growMem(e.memTop)
			}
			// Zero the region: stack memory may be reused across frames and
			// determinism requires a fixed initial state.
			clear(e.mem[base:e.memTop])
			if e.dirty != nil {
				e.markDirty(base, e.memTop)
			}
			if track {
				clear(e.taintMem[base:e.memTop])
				tIn = false // a fresh allocation's address is clean
			}
			v = uint64(base)
		case ir.OpLoad:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf, addr) {
				return 0, false
			}
			if track && e.taintMem[addr] {
				tIn = true
			}
			v = ir.CanonInt(in.ty, e.mem[addr])
		case ir.OpStore:
			addr := get(regs, consts, in.b)
			if !e.checkAddr(cf, addr) {
				return 0, false
			}
			e.mem[addr] = get(regs, consts, in.a)
			if e.dirty != nil {
				e.dirty[addr>>pageShift] = true
			}
			if track {
				tVal := taintOf(taint, in.a)
				tPtr := taintOf(taint, in.b)
				e.taintMem[addr] = tVal || tPtr
				if tVal || tPtr {
					e.taintStats.TaintedMemWrites++
				}
				if tPtr {
					e.taintStats.WildStores++
				}
			}
			pc++
			continue
		case ir.OpGEP:
			v = get(regs, consts, in.a) + get(regs, consts, in.b)
		case ir.OpCall:
			if in.callee >= 0 {
				// User call: suspend this frame and push the callee; its
				// return value is delivered by the OpRet resume path above.
				if len(e.frames) >= e.maxDep {
					e.trap = &e.p.funcs[in.callee].traps[TrapStackOverflow]
					return 0, false
				}
				fr.pc = pc
				callerOff, callerN := fr.regOff, fr.nSlots
				e.pushFrame(in.callee)
				// pushFrame may reallocate the slabs and the frame stack;
				// re-derive the caller's window before reading argument refs.
				callerRegs := e.regSlab[callerOff : callerOff+callerN]
				nf := e.frames[len(e.frames)-1]
				dst := e.regSlab[nf.regOff : nf.regOff+int32(len(in.args))]
				for i, r := range in.args {
					dst[i] = get(callerRegs, consts, r)
				}
				if track {
					callerTaint := e.taintSlab[callerOff : callerOff+callerN]
					td := e.taintSlab[nf.regOff : nf.regOff+int32(len(in.args))]
					for i, r := range in.args {
						td[i] = taintOf(callerTaint, r)
					}
				}
				reenter()
				continue
			}
			v = e.intrinsic(in, regs, consts, taint)
			if track {
				tIn = e.retTaint
			}
			if in.dst < 0 { // void call (print intrinsics)
				pc++
				continue
			}
		default:
			panic(fmt.Sprintf("interp: unhandled opcode %v", in.op))
		}

		preInj := e.injected
		v, ok := e.result(in.id, in.ty, v)
		if !ok {
			return 0, false
		}
		regs[in.dst] = v
		if track {
			t := tIn || (e.injected && !preInj)
			taint[in.dst] = t
			if t {
				e.noteTaint(in.id)
			}
		}
		pc++
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func icmpOperands(in *inst, regs, consts []uint64, cmp func(x, y int64) bool) bool {
	ty := in.srcTy
	return cmp(ir.SignedValue(ty, get(regs, consts, in.a)), ir.SignedValue(ty, get(regs, consts, in.b)))
}

func fops(in *inst, regs, consts []uint64) (float64, float64) {
	return math.Float64frombits(get(regs, consts, in.a)), math.Float64frombits(get(regs, consts, in.b))
}

// QuantizeOutput rounds a float to six significant decimal digits — the
// precision programs typically print with printf("%g"). LLFI classifies
// SDCs by diffing printed output, so low-order mantissa corruption that
// does not survive the formatting is benign; this quantization reproduces
// that masking, which the bit-exact comparison of raw doubles would miss.
func QuantizeOutput(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
		return v
	}
	var buf [32]byte
	q, err := strconv.ParseFloat(string(strconv.AppendFloat(buf[:0], v, 'g', 6, 64)), 64)
	if err != nil {
		return v
	}
	return q
}

// fpToSI converts with x86 cvttsd2si semantics: NaN and out-of-range values
// produce the minimum integer of the target width (deterministic, no trap).
func fpToSI(ty ir.Type, f float64) uint64 {
	if ty == ir.I32 {
		if math.IsNaN(f) || f >= math.MaxInt32+1 || f < math.MinInt32 {
			return ir.CanonInt(ir.I32, uint64(uint32(1)<<31))
		}
		return ir.CanonInt(ir.I32, uint64(uint32(int32(f))))
	}
	if math.IsNaN(f) || f >= math.MaxInt64 || f < math.MinInt64 {
		return uint64(1) << 63
	}
	return uint64(int64(f))
}

// intrinsic evaluates a built-in call and returns its value. When tracking,
// the return-value taint (any tainted argument) is left in e.retTaint.
func (e *exec) intrinsic(in *inst, regs, consts []uint64, taint []bool) uint64 {
	intr := -in.callee - 1
	a := func(i int) uint64 { return get(regs, consts, in.args[i]) }
	f := func(i int) float64 { return math.Float64frombits(a(i)) }
	if e.taintStats != nil {
		e.retTaint = false
		for _, r := range in.args {
			if taintOf(taint, r) {
				e.retTaint = true
				break
			}
		}
		if (intr == intrPrintI64 || intr == intrPrintF64) && e.retTaint {
			e.taintStats.TaintedOutputs++
		}
	}
	switch intr {
	case intrSqrt:
		return math.Float64bits(math.Sqrt(f(0)))
	case intrFabs:
		return math.Float64bits(math.Abs(f(0)))
	case intrExp:
		return math.Float64bits(math.Exp(f(0)))
	case intrLog:
		return math.Float64bits(math.Log(f(0)))
	case intrSin:
		return math.Float64bits(math.Sin(f(0)))
	case intrCos:
		return math.Float64bits(math.Cos(f(0)))
	case intrPow:
		return math.Float64bits(math.Pow(f(0), f(1)))
	case intrFloor:
		return math.Float64bits(math.Floor(f(0)))
	case intrPrintI64:
		e.output = append(e.output, OutVal{Ty: ir.I64, Bits: a(0)})
		return 0
	case intrPrintF64:
		q := QuantizeOutput(math.Float64frombits(a(0)))
		e.output = append(e.output, OutVal{Ty: ir.F64, Bits: math.Float64bits(q)})
		return 0
	case intrSDCDetect:
		e.detected = true
		return 0
	default:
		panic(fmt.Sprintf("interp: unknown intrinsic %d", intr))
	}
}

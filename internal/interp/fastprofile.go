package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// This file implements the profiling fast path used by GA fitness
// evaluation and the small-input fuzzer's coverage checks: a dispatch loop
// stripped of fault injection, taint tracking and checkpointing, counting
// executions per basic block (one counter bump per block entry, Ball–Larus
// style) instead of per static instruction, optionally over the fused
// superinstruction code array. Observable behaviour — outputs, return
// value, dynamic instruction count, traps, budget exhaustion and the
// reconstructed per-instruction count vector — is bit-identical to a
// profiled interp.Run.
//
// Counter model. The program has one int64 counter per basic block followed
// by one per phi-carrying CFG edge (Program.CounterLen() total). A block's
// counter is bumped every time control enters it: once at function entry
// and once per taken jump. An edge's counter is bumped after all of the
// edge's phi moves complete. A non-phi instruction's count is then exactly
// its block's counter; a phi's count is the sum of its incoming edges'
// counters (phis execute on edges — a function entered by call runs no edge
// moves, so entry-block phis correctly count zero from the entry bump).
//
// Aborts (trap or budget) leave blocks partially executed, so the plain
// block-derived counts overshoot on the aborting path. fixupAbort repairs
// this: for every live frame it retracts the current block's entry bump and
// records the block's actually-executed prefix in e.overlay (+1 per listed
// id); handlers append additional overlay entries for work completed inside
// the aborting slot (finished phi moves, the first half of a fused pair).

// ProfileMode selects the execution engine behind a Profiler.
type ProfileMode uint8

const (
	// ProfileFused runs the block-counting fast path over the fused
	// superinstruction code array (the default).
	ProfileFused ProfileMode = iota
	// ProfileBlock runs the block-counting fast path over the unfused code.
	ProfileBlock
	// ProfileLegacy delegates to interp.Run with Options.Profile — the
	// pre-fast-path per-instruction engine, kept for differential testing
	// and benchmarking.
	ProfileLegacy
)

func (m ProfileMode) String() string {
	switch m {
	case ProfileFused:
		return "fused"
	case ProfileBlock:
		return "block"
	case ProfileLegacy:
		return "legacy"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Profiler runs profiled executions of one Program with zero steady-state
// allocation: the machine state (memory, register slabs, counters, output
// buffer) is owned by the Profiler and reused across Run calls. A Profiler
// is not safe for concurrent use; pool one per worker.
type Profiler struct {
	p       *Program
	mode    ProfileMode
	e       *exec
	run     ProfileRun
	scratch []int64
}

// NewProfiler returns a Profiler using the fused fast path.
func NewProfiler(p *Program) *Profiler { return NewProfilerMode(p, ProfileFused) }

// NewProfilerMode returns a Profiler for an explicit engine mode.
func NewProfilerMode(p *Program, mode ProfileMode) *Profiler {
	pr := &Profiler{p: p, mode: mode}
	if mode != ProfileLegacy {
		pr.e = newExec(p, Options{})
		pr.e.blockCounts = make([]int64, p.CounterLen())
	}
	return pr
}

// Mode returns the profiler's engine mode.
func (pr *Profiler) Mode() ProfileMode { return pr.mode }

// Program returns the compiled program this profiler executes.
func (pr *Profiler) Program() *Program { return pr.p }

// Run executes the entry function with the given argument slots and a
// dynamic-instruction budget (0 means the interpreter default). The
// returned ProfileRun — including its Output and count state — is owned by
// the Profiler and valid only until the next Run call; copy what must
// outlive it.
func (pr *Profiler) Run(args []uint64, maxDyn int64) *ProfileRun {
	r := &pr.run
	*r = ProfileRun{prog: pr.p, prof: pr}
	if pr.mode == ProfileLegacy {
		res := Run(pr.p, args, Options{MaxDyn: maxDyn, Profile: true})
		r.Ret = res.Ret
		r.Output = res.Output
		r.DynCount = res.DynCount
		r.Trap = res.Trap
		r.BudgetExceeded = res.BudgetExceeded
		r.DetectedFlag = res.DetectedFlag
		r.legacy = res.InstrCounts
		return r
	}
	e := pr.e
	entry := pr.p.funcs[pr.p.entry]
	if len(args) != entry.nParams {
		panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
	}
	e.resetFast(maxDyn)
	e.pushFrame(pr.p.entry)
	copy(e.regSlab[:len(args)], args)
	e.blockCounts[entry.blockBase]++
	fused := pr.mode == ProfileFused
	ret, ok := e.runFast(fused)
	if !ok {
		e.fixupAbort(fused)
	}
	r.Ret = ret
	r.Output = e.output
	r.DynCount = e.dyn
	r.Trap = e.trap
	r.BudgetExceeded = e.budget
	r.DetectedFlag = e.detected
	r.counters = e.blockCounts
	r.overlay = e.overlay
	return r
}

// ProfileRun is the outcome of one profiled execution. The exported fields
// mirror interp.Result; the count state stays in block/edge form until a
// caller asks for per-instruction data.
type ProfileRun struct {
	Ret            uint64
	Output         []OutVal // borrowed from the Profiler; valid until its next Run
	DynCount       int64
	Trap           *Trap
	BudgetExceeded bool
	DetectedFlag   bool

	prog     *Program
	prof     *Profiler
	counters []int64 // borrowed block/edge counter space (fast modes)
	overlay  []int32 // borrowed abort-overlay id list (fast modes)
	legacy   []int64 // per-instruction counts (legacy mode)
}

// Program returns the compiled program the run executed.
func (r *ProfileRun) Program() *Program { return r.prog }

// Failed reports whether the run is unusable for fitness or coverage:
// it trapped, exhausted its dynamic budget, or executed no injectable
// instructions.
func (r *ProfileRun) Failed() bool {
	return r.Trap != nil || r.BudgetExceeded || r.DynCount == 0
}

// Fitness evaluates Σ_c S_c·C_c / N_total over the block/edge counter
// space, where counterScores is a Program.CounterScores fold of the
// per-instruction score vector. No per-instruction loop, no InstrCounts
// materialization. Failed runs score zero (a candidate that crashes, hangs
// or does nothing exposes no SDC surface). The counter-order summation is
// the canonical float association: fused and unfused fast-path runs produce
// bit-identical fitness values.
func (r *ProfileRun) Fitness(counterScores []float64) float64 {
	if r.Failed() {
		return 0
	}
	if r.counters == nil {
		panic("interp: ProfileRun.Fitness requires a fast-path profile mode")
	}
	var acc float64
	for c, n := range r.counters {
		if n > 0 {
			acc += counterScores[c] * float64(n)
		}
	}
	return acc / float64(r.DynCount)
}

// InstrCounts materializes the per-static-instruction execution count
// vector into dst (grown/reset as needed), reconstructing it from block and
// edge counters plus the abort overlay. The result is bit-identical to a
// profiled interp.Run's Result.InstrCounts.
func (r *ProfileRun) InstrCounts(dst []int64) []int64 {
	n := r.prog.numInstrs
	if cap(dst) < n {
		dst = make([]int64, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	if r.legacy != nil {
		copy(dst, r.legacy)
		return dst
	}
	for id := 0; id < n; id++ {
		if b := r.prog.instrBlock[id]; b >= 0 {
			dst[id] = r.counters[b]
		} else {
			var s int64
			for _, ec := range r.prog.phiEdges[id] {
				s += r.counters[ec]
			}
			dst[id] = s
		}
	}
	for _, id := range r.overlay {
		dst[id]++
	}
	return dst
}

// Counters copies the run's block/edge hit counters into dst (grown as
// needed) and returns it. Unlike the borrowed internal state, the copy stays
// valid across the profiler's subsequent runs. Counter indices are stable
// per program (Program.CounterLen()), so cross-run comparisons — e.g. the
// edge-rarity map of the rare-branch fuzzer — are well-defined. Fast-path
// modes only; the abort overlay (partial counts of the block in flight when
// a run aborts) is not folded in, which is fine for coverage-style uses
// because aborted runs are discarded as Failed.
func (r *ProfileRun) Counters(dst []int64) []int64 {
	if r.counters == nil {
		panic("interp: ProfileRun.Counters requires a fast-path profile mode")
	}
	if cap(dst) < len(r.counters) {
		dst = make([]int64, len(r.counters))
	} else {
		dst = dst[:len(r.counters)]
	}
	copy(dst, r.counters)
	return dst
}

// CoveredInstrs counts static instructions executed at least once.
func (r *ProfileRun) CoveredInstrs() int {
	counts := r.legacy
	if counts == nil {
		r.prof.scratch = r.InstrCounts(r.prof.scratch)
		counts = r.prof.scratch
	}
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// Coverage returns the fraction of injectable static instructions executed
// at least once — the small-input fuzzer's selection criterion.
func (r *ProfileRun) Coverage() float64 {
	if r.prog.numInstrs == 0 {
		return 0
	}
	return float64(r.CoveredInstrs()) / float64(r.prog.numInstrs)
}

// resetFast rewinds the machine state for the next fast-path run. Memory
// contents are deliberately NOT cleared: word 0 is never written (checkAddr
// rejects address 0), loads can only reach addresses below memTop, and
// every address below memTop was claimed by an OpAlloca that zeroed it —
// so a fresh run cannot observe a previous run's memory.
func (e *exec) resetFast(maxDyn int64) {
	e.memTop = 1
	e.dyn = 0
	e.maxDyn = maxDyn
	if e.maxDyn <= 0 {
		e.maxDyn = defaultMaxDyn
	}
	e.frames = e.frames[:0]
	e.slabTop = 0
	e.output = e.output[:0]
	e.trap = nil
	e.budget = false
	e.detected = false
	clear(e.blockCounts)
	e.overlay = e.overlay[:0]
}

// applyMovesFast performs the phi parallel copies of a CFG edge on the fast
// path, advancing the caller's local dyn clock. On budget exhaustion the
// aborting move is uncounted (matching result semantics) and the completed
// moves' phi ids are recorded in the overlay, since the edge counter that
// would have covered them is never bumped.
func (e *exec) applyMovesFast(moves []move, regs, consts []uint64, dyn int64) (int64, bool) {
	if cap(e.moveBuf) < len(moves) {
		e.moveBuf = make([]uint64, len(moves))
	}
	buf := e.moveBuf[:len(moves)]
	for i, mv := range moves {
		buf[i] = get(regs, consts, mv.src)
	}
	maxDyn := e.maxDyn
	for i, mv := range moves {
		dyn++
		if dyn > maxDyn {
			e.budget = true
			for _, done := range moves[:i] {
				e.overlay = append(e.overlay, done.phiID)
			}
			return dyn, false
		}
		regs[mv.dst] = buf[i]
	}
	return dyn, true
}

// fixupAbort repairs the block counters after an aborted fast-path run: for
// every live frame, the current block's entry bump is retracted and the
// ids of the block's executed prefix (everything strictly before the
// frame's pc — for suspended frames that excludes the pending call, which
// only counts at return) are appended to the overlay. Combined with the
// handler-appended overlays for partial slots, the reconstructed counts
// match the legacy engine's exactly.
func (e *exec) fixupAbort(fused bool) {
	for i := range e.frames {
		fr := &e.frames[i]
		cf := e.p.funcs[fr.fi]
		blockOf, blockStart, code := cf.blockOf, cf.blockStart, cf.code
		if fused {
			blockOf, blockStart, code = cf.fusedOf, cf.fusedStart, cf.fused
		}
		lb := blockOf[fr.pc]
		e.blockCounts[cf.blockBase+lb]--
		for p := blockStart[lb]; p < fr.pc; p++ {
			in := &code[p]
			if in.id >= 0 {
				e.overlay = append(e.overlay, in.id)
			}
			if in.id2 >= 0 {
				e.overlay = append(e.overlay, in.id2)
			}
		}
	}
}

// evalCmp evaluates a comparison opcode on raw operand bits.
func evalCmp(op ir.Op, srcTy ir.Type, x, y uint64) uint64 {
	switch op {
	case ir.OpICmpEQ:
		return b2u(x == y)
	case ir.OpICmpNE:
		return b2u(x != y)
	case ir.OpICmpSLT:
		return b2u(ir.SignedValue(srcTy, x) < ir.SignedValue(srcTy, y))
	case ir.OpICmpSLE:
		return b2u(ir.SignedValue(srcTy, x) <= ir.SignedValue(srcTy, y))
	case ir.OpICmpSGT:
		return b2u(ir.SignedValue(srcTy, x) > ir.SignedValue(srcTy, y))
	case ir.OpICmpSGE:
		return b2u(ir.SignedValue(srcTy, x) >= ir.SignedValue(srcTy, y))
	}
	fx, fy := math.Float64frombits(x), math.Float64frombits(y)
	switch op {
	case ir.OpFCmpOEQ:
		return b2u(fx == fy)
	case ir.OpFCmpONE:
		return b2u(fx < fy || fx > fy)
	case ir.OpFCmpOLT:
		return b2u(fx < fy)
	case ir.OpFCmpOLE:
		return b2u(fx <= fy)
	case ir.OpFCmpOGT:
		return b2u(fx > fy)
	case ir.OpFCmpOGE:
		return b2u(fx >= fy)
	default:
		panic(fmt.Sprintf("interp: evalCmp on %v", op))
	}
}

// evalFusedArith evaluates a fusableArith opcode on raw operand bits,
// reproducing the legacy dispatch loop's semantics case for case.
func evalFusedArith(op ir.Op, ty ir.Type, x, y uint64) uint64 {
	switch op {
	case ir.OpAdd:
		return ir.CanonInt(ty, x+y)
	case ir.OpSub:
		return ir.CanonInt(ty, x-y)
	case ir.OpMul:
		return ir.CanonInt(ty, x*y)
	case ir.OpShl:
		return ir.CanonInt(ty, x<<(y&uint64(ty.Bits()-1)))
	case ir.OpLShr:
		return x >> (y & uint64(ty.Bits()-1)) // operands canonical: high bits clear
	case ir.OpAShr:
		return ir.CanonInt(ty, uint64(ir.SignedValue(ty, x)>>(y&uint64(ty.Bits()-1))))
	case ir.OpAnd:
		return x & y
	case ir.OpOr:
		return x | y
	case ir.OpXor:
		return x ^ y
	case ir.OpFAdd:
		return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
	case ir.OpFSub:
		return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
	case ir.OpFMul:
		return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
	case ir.OpFDiv:
		return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
	case ir.OpGEP:
		return x + y
	default:
		panic(fmt.Sprintf("interp: evalFusedArith on %v", op))
	}
}

// runFast is the profiling fast path's dispatch loop: the legacy run()
// minus fault injection, taint tracking and checkpointing, with block/edge
// counters in place of per-instruction counting, superinstruction handlers
// when fusedRun is set, and the frame re-entry and abort paths hand-inlined
// — the legacy loop's reenter closure forces its captured locals (pc, regs,
// code) into heap cells, which is exactly the overhead a fitness-evaluation
// inner loop cannot afford. The dyn clock lives in a local and is synced to
// e.dyn at every exit. In a trial tail every block entry past e.conv.at
// compares the machine with a golden snapshot (converge.go); elsewhere
// conv.at is math.MaxInt64 and the check is a load and a compare.
func (e *exec) runFast(fusedRun bool) (uint64, bool) {
	var (
		fr     *frame
		cf     *compiledFunc
		regs   []uint64
		consts []uint64
		code   []inst
		pc     int32
	)
	counters := e.blockCounts
	dyn := e.dyn
	maxDyn := e.maxDyn

	fr = &e.frames[len(e.frames)-1]
	cf = e.p.funcs[fr.fi]
	regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
	consts = cf.consts
	if fusedRun {
		code = cf.fused
	} else {
		code = cf.code
	}
	pc = fr.pc

	for {
		in := &code[pc]
		switch in.op {
		case ir.OpBr:
			if len(in.movesA) != 0 {
				var ok bool
				dyn, ok = e.applyMovesFast(in.movesA, regs, consts, dyn)
				if !ok {
					fr.pc, e.dyn = pc, dyn
					return 0, false
				}
				counters[in.edgeA]++
			}
			counters[in.blkA]++
			pc = in.jumpA
			if dyn < e.conv.at || !e.converge(fr, pc, dyn) {
				continue
			}
			return e.conv.c.end.ret, true

		case ir.OpCondBr:
			moves, edge, blk, jump := in.movesB, in.edgeB, in.blkB, in.jumpB
			if get(regs, consts, in.a)&1 != 0 {
				moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			}
			if len(moves) != 0 {
				var ok bool
				dyn, ok = e.applyMovesFast(moves, regs, consts, dyn)
				if !ok {
					fr.pc, e.dyn = pc, dyn
					return 0, false
				}
				counters[edge]++
			}
			counters[blk]++
			pc = jump
			if dyn < e.conv.at || !e.converge(fr, pc, dyn) {
				continue
			}
			return e.conv.c.end.ret, true

		case opFusedCmpBr:
			v := evalCmp(in.op1, in.srcTy, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > maxDyn {
				e.budget = true
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst] = v
			moves, edge, blk, jump := in.movesB, in.edgeB, in.blkB, in.jumpB
			if v != 0 {
				moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			}
			if len(moves) != 0 {
				var ok bool
				dyn, ok = e.applyMovesFast(moves, regs, consts, dyn)
				if !ok {
					// The comparison executed and counted; the fixup prefix
					// walk stops before this slot, so overlay it explicitly.
					e.overlay = append(e.overlay, in.id)
					fr.pc, e.dyn = pc, dyn
					return 0, false
				}
				counters[edge]++
			}
			counters[blk]++
			pc = jump
			if dyn < e.conv.at || !e.converge(fr, pc, dyn) {
				continue
			}
			return e.conv.c.end.ret, true

		case opFusedLoadArith:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf, addr) {
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			dyn++
			if dyn > maxDyn {
				e.budget = true
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst] = ir.CanonInt(in.ty, e.mem[addr])
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			dyn++
			if dyn > maxDyn {
				e.budget = true
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst2] = v2
			pc++
			continue

		case opFusedArithLoad:
			v1 := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > maxDyn {
				e.budget = true
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst] = v1
			addr := get(regs, consts, in.a2)
			if !e.checkAddr(cf, addr) {
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			dyn++
			if dyn > maxDyn {
				e.budget = true
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst2] = ir.CanonInt(in.ty2, e.mem[addr])
			pc++
			continue

		case opFusedArithStore:
			v1 := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > maxDyn {
				e.budget = true
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst] = v1
			addr := get(regs, consts, in.b2)
			if !e.checkAddr(cf, addr) {
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			e.mem[addr] = get(regs, consts, in.a2)
			pc++
			continue

		case opFusedArithArith:
			v1 := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > maxDyn {
				e.budget = true
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst] = v1
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			dyn++
			if dyn > maxDyn {
				e.budget = true
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[in.dst2] = v2
			pc++
			continue

		case ir.OpRet:
			var rv uint64
			if cf.retTy != ir.Void {
				rv = get(regs, consts, in.a)
			}
			e.memTop = fr.memBase
			e.slabTop = int(fr.regOff)
			e.frames = e.frames[:len(e.frames)-1]
			if len(e.frames) == 0 {
				e.dyn = dyn
				return rv, true
			}
			fr = &e.frames[len(e.frames)-1]
			cf = e.p.funcs[fr.fi]
			regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
			consts = cf.consts
			if fusedRun {
				code = cf.fused
			} else {
				code = cf.code
			}
			pc = fr.pc
			// pc is the caller's suspended OpCall (never fused); complete it.
			cin := &code[pc]
			if cin.dst < 0 { // void call
				pc++
				continue
			}
			dyn++
			if dyn > maxDyn {
				e.budget = true
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			regs[cin.dst] = rv
			pc++
			continue
		}

		var v uint64
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
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			minInt := int64(math.MinInt64)
			if in.ty == ir.I32 {
				minInt = math.MinInt32
			}
			if x == minInt && y == -1 {
				e.trap = &cf.traps[TrapDivOverflow]
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			if in.op == ir.OpSDiv {
				v = ir.CanonInt(in.ty, uint64(x/y))
			} else {
				v = ir.CanonInt(in.ty, uint64(x%y))
			}
		case ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpGEP:
			v = evalFusedArith(in.op, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
		case ir.OpICmpEQ, ir.OpICmpNE, ir.OpICmpSLT, ir.OpICmpSLE, ir.OpICmpSGT, ir.OpICmpSGE,
			ir.OpFCmpOEQ, ir.OpFCmpONE, ir.OpFCmpOLT, ir.OpFCmpOLE, ir.OpFCmpOGT, ir.OpFCmpOGE:
			v = evalCmp(in.op, in.srcTy, get(regs, consts, in.a), get(regs, consts, in.b))
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
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			base := e.memTop
			e.memTop += count
			if int64(len(e.mem)) < e.memTop {
				e.growMem(e.memTop)
			}
			// Zeroing claimed stack memory is what lets resetFast skip
			// clearing e.mem between runs.
			clear(e.mem[base:e.memTop])
			v = uint64(base)
		case ir.OpLoad:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf, addr) {
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			v = ir.CanonInt(in.ty, e.mem[addr])
		case ir.OpStore:
			addr := get(regs, consts, in.b)
			if !e.checkAddr(cf, addr) {
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			e.mem[addr] = get(regs, consts, in.a)
			pc++
			continue
		case ir.OpCall:
			if in.callee >= 0 {
				if len(e.frames) >= e.maxDep {
					e.trap = &e.p.funcs[in.callee].traps[TrapStackOverflow]
					fr.pc, e.dyn = pc, dyn
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
				fr = &e.frames[len(e.frames)-1]
				cf = e.p.funcs[fr.fi]
				regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
				consts = cf.consts
				if fusedRun {
					code = cf.fused
				} else {
					code = cf.code
				}
				pc = 0
				counters[cf.blockBase]++
				if dyn < e.conv.at || !e.converge(fr, pc, dyn) {
					continue
				}
				return e.conv.c.end.ret, true
			}
			v = e.intrinsic(in, regs, consts, nil)
			if in.dst < 0 { // void call (print intrinsics)
				pc++
				continue
			}
		default:
			panic(fmt.Sprintf("interp: unhandled opcode %v in fast path", in.op))
		}

		dyn++
		if dyn > maxDyn {
			e.budget = true
			fr.pc, e.dyn = pc, dyn
			return 0, false
		}
		regs[in.dst] = v
		pc++
	}
}

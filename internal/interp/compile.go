// Package interp executes ir.Module programs. It is the stand-in for native
// execution in the original paper's toolchain: it provides deterministic
// golden runs, per-dynamic-instruction fault injection hooks (the LLFI
// role), trap detection for crash classification, dynamic-instruction
// budgets for hang classification, and per-static-instruction execution
// counting for coverage and for the PEPPA-X fitness function
// fitness = Σᵢ Pᵢ·(Nᵢ/N_total) (§4.2.5).
//
// Modules are first compiled to a flat register machine: each
// value-producing instruction gets a frame slot, and so does each distinct
// constant, so every operand is a slot reference; blocks flatten into a
// single code array with branch targets as code indices, and SSA phis
// lower to parallel copies attached to control-flow edges.
package interp

import (
	"fmt"

	"repro/internal/ir"
)

// ref encodes an operand as a slot of its frame's register window:
// parameters, then values, then the function's constants, which
// pushFrame copies into every new window.
type ref int32

// move is one phi-edge parallel copy: write the value of src into dst when
// the edge executes. phiID is the static instruction ID of the phi (the phi
// "executes" on the edge, so the copy is an injectable dynamic instruction).
type move struct {
	dst   int32
	src   ref
	phiID int32
	ty    ir.Type
}

// inst is a decoded instruction.
type inst struct {
	op  ir.Op
	ty  ir.Type
	dst int32 // frame slot, -1 for void results
	id  int32 // static instruction ID, -1 for void

	// srcTy is the operand type for casts and integer comparisons, whose
	// semantics depend on the source width rather than the result type.
	srcTy ir.Type

	// nargs is the number of inline operands in use (taint propagation
	// needs to know which of a/b/c are live).
	nargs int8

	a, b, c ref // inline operands (arity <= 3)

	// Branch data. For OpBr: jumpA is the target pc and movesA its phi
	// copies. For OpCondBr: jumpA/movesA for true, jumpB/movesB for false.
	jumpA, jumpB   int32
	movesA, movesB []move

	// Call data: callee >= 0 indexes Program.funcs; callee < 0 encodes
	// intrinsic (-callee - 1). args lists operand refs.
	callee int32
	args   []ref

	// Superinstruction data (profiling fast path). A fused inst carries two
	// adjacent source instructions: op is the fused opcode (opFused*), op1
	// and op2 the original sub-opcodes, and ty2/dst2/id2/a2/b2 the second
	// sub-instruction's fields (the first keeps ty/dst/id/a/b). dst2/id2 are
	// -1 when unused so the abort fixup can treat every slot uniformly.
	op1, op2  ir.Op
	ty2       ir.Type
	dst2, id2 int32
	a2, b2    ref

	// Block-granular profiling data. For branches, blkA/blkB are the global
	// block-counter indices of the jump targets, and edgeA/edgeB the edge
	// counter of the corresponding phi-move list (-1 when the edge carries
	// no phis). Phis are counted per incoming edge rather than per block
	// entry because a function entered by call executes no edge moves.
	edgeA, edgeB int32
	blkA, blkB   int32
}

// compiledFunc is the executable form of one function.
type compiledFunc struct {
	name    string
	nParams int
	nSlots  int // params, then one slot per value-producing instr, then consts
	retTy   ir.Type
	code    []inst
	consts  []uint64 // the last len(consts) slots of every register window

	// Block table. Blocks are numbered in layout order; block counter b of
	// this function lives at global counter index blockBase+b.
	// blockStart/blockOf describe the unfused code array, fusedStart/fusedOf
	// the fused one.
	blockBase  int32
	numBlocks  int32
	blockStart []int32 // phi-skipped start pc of each block
	blockOf    []int32 // pc -> local block index

	// fused is the superinstruction code array the fast loop (runFast)
	// executes, and only it: identical control flow, with hot adjacent
	// pairs combined into opFused* slots. Jump targets are remapped into
	// fused pcs; observable semantics (outputs, traps, dynamic counts,
	// per-instruction counts) are bit-identical to code, which the generic
	// engine executes. fusedPC maps each unfused pc to the fused pc of the
	// slot it starts, or -1 for the second half of a pair; it translates
	// generic-engine frames (snapshots, a trial's injection window) into
	// fast-loop ones.
	fused      []inst
	fusedPC    []int32
	fusedStart []int32
	fusedOf    []int32

	// traps describes each trap kind raised in this function; a trapping
	// run points Result.Trap at one instead of allocating it.
	traps [TrapStackOverflow + 1]Trap
}

// intrinsic IDs, fixed order for the dispatch table in exec.go.
const (
	intrSqrt = iota
	intrFabs
	intrExp
	intrLog
	intrSin
	intrCos
	intrPow
	intrFloor
	intrPrintI64
	intrPrintF64
	intrSDCDetect
	numIntrinsics
)

var intrinsicIndex = map[string]int32{
	"sqrt": intrSqrt, "fabs": intrFabs, "exp": intrExp, "log": intrLog,
	"sin": intrSin, "cos": intrCos, "pow": intrPow, "floor": intrFloor,
	"print_i64": intrPrintI64, "print_f64": intrPrintF64,
	"sdc_detect": intrSDCDetect,
}

// Program is a compiled, executable module.
type Program struct {
	Mod       *ir.Module
	funcs     []*compiledFunc
	funcIdx   map[string]int32
	entry     int32
	numInstrs int // injectable static instructions

	// instrTypes[id] is the result type of static instruction id, used to
	// resolve deferred fault bits.
	instrTypes []ir.Type

	// Block-granular profiling tables. The fast path maintains one counter
	// per basic block plus one per phi-carrying CFG edge, in a single
	// counter space of CounterLen() slots (blocks first, then edges).
	numBlocks int
	numEdges  int
	// instrBlock[id] is the global block-counter index whose count equals
	// the instruction's execution count, or -1 for phis.
	instrBlock []int32
	// phiEdges[id] lists the global edge-counter indices feeding phi id
	// (its execution count is their sum); nil for non-phis.
	phiEdges [][]int32
	// blockInstrs[b] counts the non-phi value-producing instructions of
	// global block b.
	blockInstrs []int32

	// maxSlotDyn bounds how far the dyn clock can advance inside a single
	// instruction of the unfused code array (a phi move list). Boundary
	// checks in run() happen between instructions, so the batch executor
	// subtracts this bound when arming a stop point that must be reached
	// strictly before a given dyn value (see batch.go). It is also the
	// longest phi move list, which sizes each machine's move scratch.
	maxSlotDyn int64
}

// NumInstrs returns the number of injectable static instructions.
func (p *Program) NumInstrs() int { return p.numInstrs }

// InstrType returns the result type of static instruction id.
func (p *Program) InstrType(id int) ir.Type { return p.instrTypes[id] }

// NumBlocks returns the number of basic blocks across all functions.
func (p *Program) NumBlocks() int { return p.numBlocks }

// CounterLen returns the length of the block/edge profile counter space.
func (p *Program) CounterLen() int { return p.numBlocks + p.numEdges }

// CounterScores folds a per-static-instruction score vector into the
// profile counter space: non-phi scores accumulate onto their block's
// counter, phi scores onto every incoming edge of their block. With
// S = CounterScores(scores) a clean profiled run satisfies
//
//	Σ_id scores[id]·counts[id]  ==  Σ_c S[c]·counters[c]
//
// so the fitness numerator needs no per-instruction loop and no
// InstrCounts materialization. The counter-order summation is the
// canonical fitness association of the fast loop.
func (p *Program) CounterScores(scores []float64) []float64 {
	if len(scores) != p.numInstrs {
		panic(fmt.Sprintf("interp: CounterScores got %d scores for %d instructions", len(scores), p.numInstrs))
	}
	s := make([]float64, p.CounterLen())
	for id, sc := range scores {
		if b := p.instrBlock[id]; b >= 0 {
			s[b] += sc
		} else {
			for _, e := range p.phiEdges[id] {
				s[e] += sc
			}
		}
	}
	return s
}

// Compile verifies and flat-decodes a module. The module is finalized as a
// side effect (static IDs assigned).
func Compile(m *ir.Module) (*Program, error) {
	m.Finalize()
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	p := &Program{
		Mod:       m,
		funcIdx:   make(map[string]int32, len(m.Funcs)),
		numInstrs: m.NumInstrs(),
	}
	p.instrTypes = make([]ir.Type, p.numInstrs)
	for id, in := range m.Instrs() {
		p.instrTypes[id] = in.Ty
	}
	for i, f := range m.Funcs {
		p.funcIdx[f.Name] = int32(i)
	}
	p.entry = p.funcIdx[m.EntryName]
	for _, f := range m.Funcs {
		cf, err := compileFunc(p, f)
		if err != nil {
			return nil, fmt.Errorf("interp: compiling %s: %w", f.Name, err)
		}
		p.funcs = append(p.funcs, cf)
	}
	p.buildProfileTables()
	p.maxSlotDyn = 1
	for _, cf := range p.funcs {
		fuseFunc(cf)
		for i := range cf.code {
			// A branch executes one injectable copy per phi move; any
			// other instruction produces at most one value (an OpRet
			// completing the caller's call counts once).
			if in := &cf.code[i]; in.op == ir.OpBr || in.op == ir.OpCondBr {
				p.maxSlotDyn = max(p.maxSlotDyn, int64(len(in.movesA)), int64(len(in.movesB)))
			}
		}
	}
	return p, nil
}

// buildProfileTables numbers blocks and phi-carrying edges into one global
// counter space and precomputes the id -> counter mappings the fast path's
// InstrCounts reconstruction and CounterScores use.
func (p *Program) buildProfileTables() {
	next := int32(0)
	for _, cf := range p.funcs {
		cf.blockBase = next
		next += cf.numBlocks
	}
	p.numBlocks = int(next)
	p.instrBlock = make([]int32, p.numInstrs)
	for i := range p.instrBlock {
		p.instrBlock[i] = -1
	}
	p.phiEdges = make([][]int32, p.numInstrs)
	p.blockInstrs = make([]int32, p.numBlocks)
	edge := next
	claimEdge := func(moves []move) int32 {
		if len(moves) == 0 {
			return -1
		}
		for _, mv := range moves {
			p.phiEdges[mv.phiID] = append(p.phiEdges[mv.phiID], edge)
		}
		edge++
		return edge - 1
	}
	for _, cf := range p.funcs {
		for pc := range cf.code {
			in := &cf.code[pc]
			if in.id >= 0 {
				gb := cf.blockBase + cf.blockOf[pc]
				p.instrBlock[in.id] = gb
				p.blockInstrs[gb]++
			}
			switch in.op {
			case ir.OpBr:
				in.blkA = cf.blockBase + cf.blockOf[in.jumpA]
				in.edgeA = claimEdge(in.movesA)
			case ir.OpCondBr:
				in.blkA = cf.blockBase + cf.blockOf[in.jumpA]
				in.blkB = cf.blockBase + cf.blockOf[in.jumpB]
				in.edgeA = claimEdge(in.movesA)
				in.edgeB = claimEdge(in.movesB)
			}
		}
	}
	p.numEdges = int(edge) - p.numBlocks
}

// funcCompiler carries per-function compile state.
type funcCompiler struct {
	p        *Program
	cf       *compiledFunc
	slotOf   map[*ir.Instr]int32
	nVals    int32                      // params plus value-producing instrs: the first constant slot
	constIdx map[uint64]map[ir.Type]ref // dedup constant pool
}

func compileFunc(p *Program, f *ir.Function) (*compiledFunc, error) {
	cf := &compiledFunc{name: f.Name, nParams: len(f.Params), retTy: f.RetTy}
	for k := range cf.traps {
		cf.traps[k] = Trap{Kind: TrapKind(k), Fn: f.Name}
	}
	fc := &funcCompiler{p: p, cf: cf, slotOf: make(map[*ir.Instr]int32), constIdx: make(map[uint64]map[ir.Type]ref)}

	// Slot assignment: params 0..n-1, then every value-producing instr.
	next := int32(len(f.Params))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ty != ir.Void {
				fc.slotOf[in] = next
				next++
			}
		}
	}
	fc.nVals = next

	// Block start pcs: jump targets skip phis (phi values are written by
	// edge moves before the jump lands).
	blockPC := make(map[*ir.Block]int32, len(f.Blocks))
	pc := int32(0)
	for _, b := range f.Blocks {
		nPhi := int32(0)
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				nPhi++
			}
		}
		blockPC[b] = pc
		pc += int32(len(b.Instrs)) - nPhi
	}

	// Emit code, recording the block table as blocks are laid out: each
	// block's phi-skipped start pc and the pc -> block map the fast path's
	// abort fixup walks.
	cf.numBlocks = int32(len(f.Blocks))
	cf.blockStart = make([]int32, 0, len(f.Blocks))
	for bi, b := range f.Blocks {
		cf.blockStart = append(cf.blockStart, int32(len(cf.code)))
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			ci, err := fc.compileInstr(in, blockPC)
			if err != nil {
				return nil, err
			}
			cf.code = append(cf.code, ci)
			cf.blockOf = append(cf.blockOf, int32(bi))
		}
	}
	cf.nSlots = int(fc.nVals) + len(cf.consts)
	return cf, nil
}

// operand resolves a value to a ref.
func (fc *funcCompiler) operand(v ir.Value) (ref, error) {
	switch x := v.(type) {
	case ir.Const:
		byTy, ok := fc.constIdx[x.Bits]
		if !ok {
			byTy = make(map[ir.Type]ref)
			fc.constIdx[x.Bits] = byTy
		}
		if r, ok := byTy[x.Ty]; ok {
			return r, nil
		}
		r := ref(fc.nVals + int32(len(fc.cf.consts)))
		fc.cf.consts = append(fc.cf.consts, x.Bits)
		byTy[x.Ty] = r
		return r, nil
	case *ir.Param:
		return ref(x.Index), nil
	case *ir.Instr:
		slot, ok := fc.slotOf[x]
		if !ok {
			return 0, fmt.Errorf("operand %%%s has no slot", x.Name)
		}
		return ref(slot), nil
	default:
		return 0, fmt.Errorf("unknown operand kind %T", v)
	}
}

// edgeMoves builds the phi parallel copies for the edge into target.
func (fc *funcCompiler) edgeMoves(from *ir.Block, target *ir.Block) ([]move, error) {
	var moves []move
	for _, in := range target.Instrs {
		if in.Op != ir.OpPhi {
			break // phis are grouped at block start (verified)
		}
		for i, pb := range in.PhiBlocks {
			if pb == from {
				src, err := fc.operand(in.Args[i])
				if err != nil {
					return nil, err
				}
				moves = append(moves, move{
					dst: fc.slotOf[in], src: src, phiID: int32(in.ID), ty: in.Ty,
				})
				break
			}
		}
	}
	return moves, nil
}

func (fc *funcCompiler) compileInstr(in *ir.Instr, blockPC map[*ir.Block]int32) (inst, error) {
	ci := inst{op: in.Op, ty: in.Ty, dst: -1, id: -1, callee: -1,
		dst2: -1, id2: -1, edgeA: -1, edgeB: -1}
	if in.Ty != ir.Void {
		ci.dst = fc.slotOf[in]
		ci.id = int32(in.ID)
	}
	if len(in.Args) > 0 {
		ci.srcTy = in.Args[0].Type()
	}
	setOps := func() error {
		ops := [3]*ref{&ci.a, &ci.b, &ci.c}
		if len(in.Args) > 3 {
			return fmt.Errorf("instruction %v has %d operands", in.Op, len(in.Args))
		}
		ci.nargs = int8(len(in.Args))
		for i, a := range in.Args {
			r, err := fc.operand(a)
			if err != nil {
				return err
			}
			*ops[i] = r
		}
		return nil
	}
	switch in.Op {
	case ir.OpBr:
		moves, err := fc.edgeMoves(in.Block, in.Targets[0])
		if err != nil {
			return ci, err
		}
		ci.jumpA = blockPC[in.Targets[0]]
		ci.movesA = moves
	case ir.OpCondBr:
		if err := setOps(); err != nil {
			return ci, err
		}
		mA, err := fc.edgeMoves(in.Block, in.Targets[0])
		if err != nil {
			return ci, err
		}
		mB, err := fc.edgeMoves(in.Block, in.Targets[1])
		if err != nil {
			return ci, err
		}
		ci.jumpA, ci.movesA = blockPC[in.Targets[0]], mA
		ci.jumpB, ci.movesB = blockPC[in.Targets[1]], mB
	case ir.OpCall:
		for _, a := range in.Args {
			r, err := fc.operand(a)
			if err != nil {
				return ci, err
			}
			ci.args = append(ci.args, r)
		}
		if fi, ok := fc.p.funcIdx[in.Callee]; ok {
			ci.callee = fi
		} else if ii, ok := intrinsicIndex[in.Callee]; ok {
			ci.callee = -ii - 1
		} else {
			return ci, fmt.Errorf("unknown callee %q", in.Callee)
		}
	default:
		if err := setOps(); err != nil {
			return ci, err
		}
	}
	return ci, nil
}

package ir

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes. The set mirrors the LLVM instructions the paper's
// benchmarks exercise at -O0: integer and floating arithmetic, shifts and
// logic, signed comparisons, width casts, memory via alloca/load/store/GEP,
// and structured control flow.
const (
	OpInvalid Op = iota

	// Integer arithmetic (I32 or I64).
	OpAdd
	OpSub
	OpMul
	OpSDiv // traps on divide-by-zero
	OpSRem // traps on divide-by-zero

	// Shifts and bitwise logic (I32 or I64).
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Floating-point arithmetic (F64).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Integer comparisons (operands I32/I64/Ptr, result I1, signed order).
	OpICmpEQ
	OpICmpNE
	OpICmpSLT
	OpICmpSLE
	OpICmpSGT
	OpICmpSGE

	// Floating comparisons (operands F64, result I1, ordered: NaN => false).
	OpFCmpOEQ
	OpFCmpONE
	OpFCmpOLT
	OpFCmpOLE
	OpFCmpOGT
	OpFCmpOGE

	// Casts. The destination type is the instruction's type.
	OpTrunc  // wider int -> narrower int
	OpSExt   // narrower int -> wider int, sign-extending
	OpZExt   // narrower int -> wider int, zero-extending
	OpSIToFP // signed int -> F64
	OpFPToSI // F64 -> signed int (truncating; traps if out of range)

	// Memory. Addresses are in 8-byte word units; word 0 is the null page.
	OpAlloca // operand: word count (I64) -> Ptr; stack discipline per frame
	OpLoad   // operand: Ptr -> instruction type
	OpStore  // operands: value, Ptr -> Void
	OpGEP    // operands: Ptr, index (I64) -> Ptr (pointer + index words)

	// Other value operations.
	OpSelect // operands: I1, a, b -> type of a/b
	OpPhi    // SSA phi; incoming pairs carried in Instr.PhiBlocks
	OpCall   // call a module function or intrinsic

	// Terminators.
	OpBr     // unconditional branch; target in Instr.Targets[0]
	OpCondBr // operands: I1; targets true/false in Instr.Targets
	OpRet    // optional operand: return value

	// NumOps is one past the last opcode. A consumer that numbers opcodes
	// of its own (the interpreter's fused superinstructions) starts here,
	// so one dense switch covers both sets.
	NumOps
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmpEQ: "icmp.eq", OpICmpNE: "icmp.ne", OpICmpSLT: "icmp.slt",
	OpICmpSLE: "icmp.sle", OpICmpSGT: "icmp.sgt", OpICmpSGE: "icmp.sge",
	OpFCmpOEQ: "fcmp.oeq", OpFCmpONE: "fcmp.one", OpFCmpOLT: "fcmp.olt",
	OpFCmpOLE: "fcmp.ole", OpFCmpOGT: "fcmp.ogt", OpFCmpOGE: "fcmp.oge",
	OpTrunc: "trunc", OpSExt: "sext", OpZExt: "zext", OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpSelect: "select", OpPhi: "phi", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

// String returns the mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// opByName maps mnemonics back to opcodes for the parser.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// IsTerminator reports whether the opcode ends a basic block.
func (op Op) IsTerminator() bool { return op == OpBr || op == OpCondBr || op == OpRet }

// IsICmp reports whether the opcode is an integer comparison.
func (op Op) IsICmp() bool { return op >= OpICmpEQ && op <= OpICmpSGE }

// IsFCmp reports whether the opcode is a floating comparison.
func (op Op) IsFCmp() bool { return op >= OpFCmpOEQ && op <= OpFCmpOGE }

// IsCmp reports whether the opcode is any comparison.
func (op Op) IsCmp() bool { return op.IsICmp() || op.IsFCmp() }

// IsLogic reports whether the opcode is a bitwise logic operator (AND, OR,
// XOR) — one of the paper's pruning boundary classes.
func (op Op) IsLogic() bool { return op == OpAnd || op == OpOr || op == OpXor }

// IsBitManip reports whether the opcode is a bit-manipulation or width-cast
// operation (TRUNC, SEXT, ZEXT, shifts) — another pruning boundary class.
func (op Op) IsBitManip() bool {
	switch op {
	case OpTrunc, OpSExt, OpZExt, OpShl, OpLShr, OpAShr:
		return true
	}
	return false
}

// IsPointerOp reports whether the opcode manipulates pointers (GEP, ALLOCA)
// — the paper's final pruning boundary class.
func (op Op) IsPointerOp() bool { return op == OpGEP || op == OpAlloca }

// IsBoundary reports whether the opcode separates a static data-dependence
// group into pruning subgroups, per §4.2.2 of the paper: comparisons, logic
// operators, bit-manipulation instructions, and pointer operations.
func (op Op) IsBoundary() bool {
	return op.IsCmp() || op.IsLogic() || op.IsBitManip() || op.IsPointerOp()
}

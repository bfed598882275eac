package ir

import "fmt"

// Instr is a single IR instruction. An instruction with a non-Void type
// produces one value and can be used as an operand of later instructions.
//
// Every value-producing instruction in a module receives a unique, stable
// static-instruction ID (assigned by Module.Finalize), which is the unit the
// paper's analyses operate on: per-instruction SDC probabilities, pruning
// groups, SDC scores and dynamic execution counts are all indexed by it.
type Instr struct {
	Op   Op
	Ty   Type    // result type; Void for store/terminators
	Args []Value // operands, opcode-specific arity

	// Name is the printer/parse name of the result register (without '%').
	// Assigned automatically by the builder when empty.
	Name string

	// Targets holds successor blocks for terminators: Br uses Targets[0];
	// CondBr uses Targets[0] (true) and Targets[1] (false).
	Targets []*Block

	// PhiBlocks pairs with Args for OpPhi: Args[i] is the incoming value
	// when control arrives from PhiBlocks[i].
	PhiBlocks []*Block

	// Callee is the target name for OpCall: either a function in the module
	// or an intrinsic (see Intrinsics).
	Callee string

	// ID is the module-wide static instruction ID, valid after
	// Module.Finalize. Void-typed instructions have ID -1: they produce no
	// return value and therefore are not fault-injection sites under the
	// paper's fault model.
	ID int

	// Block is the containing basic block, set when the instruction is
	// appended.
	Block *Block
}

// Type implements Value.
func (in *Instr) Type() Type { return in.Ty }

func (in *Instr) valueString() string { return fmt.Sprintf("%s %%%s", in.Ty, in.Name) }

// Injectable reports whether the instruction is a fault-injection site:
// it produces a value whose bits a transient fault can corrupt.
func (in *Instr) Injectable() bool { return in.Ty != Void }

// Block is a basic block: a straight-line instruction sequence ending in
// exactly one terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Fn     *Function

	// Index is the position of the block within its function, set when the
	// block is created.
	Index int
}

// Terminator returns the block's final instruction if it is a terminator,
// or nil if the block is empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the block's successor blocks (empty for Ret).
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Function is an IR function: typed parameters, a return type, and a list of
// basic blocks whose first entry is the entry block.
type Function struct {
	Name    string
	Params  []*Param
	RetTy   Type
	Blocks  []*Block
	Mod     *Module
	nextTmp int // counter for auto-generated value names

	blockNames map[string]bool // dedupes block names for the printer
}

// NewBlock appends a new, empty basic block to the function. Block names
// must be unique for the printer/parser round-trip; a colliding name is
// suffixed with the block index.
func (f *Function) NewBlock(name string) *Block {
	if f.blockNames == nil {
		f.blockNames = make(map[string]bool)
	}
	if f.blockNames[name] {
		name = fmt.Sprintf("%s.%d", name, len(f.Blocks))
	}
	f.blockNames[name] = true
	b := &Block{Name: name, Fn: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block, or nil for an empty function.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Module is a compilation unit: a set of functions, one of which (Entry) is
// the program entry point.
type Module struct {
	Name  string
	Funcs []*Function

	// EntryName is the function executed by the interpreter; defaults to
	// "main".
	EntryName string

	// instrs is the dense static-instruction table built by Finalize:
	// instrs[id] is the value-producing instruction with that ID.
	instrs []*Instr

	finalized bool
}

// NewModule returns an empty module with entry function name "main".
func NewModule(name string) *Module {
	return &Module{Name: name, EntryName: "main"}
}

// NewFunc creates a function, appends it to the module, and returns it.
// Parameter order defines the call signature.
func (m *Module) NewFunc(name string, retTy Type, params ...*Param) *Function {
	for i, p := range params {
		p.Index = i
	}
	f := &Function{Name: name, Params: params, RetTy: retTy, Mod: m}
	m.Funcs = append(m.Funcs, f)
	m.finalized = false
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Entry returns the module's entry function, or nil.
func (m *Module) Entry() *Function { return m.Func(m.EntryName) }

// Finalize assigns dense static-instruction IDs to every value-producing
// instruction, assigns names to anonymous values, and freezes the table
// returned by Instrs. It is idempotent.
func (m *Module) Finalize() {
	m.instrs = m.instrs[:0]
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Injectable() {
					in.ID = len(m.instrs)
					m.instrs = append(m.instrs, in)
					if in.Name == "" {
						in.Name = fmt.Sprintf("v%d", f.nextTmp)
						f.nextTmp++
					}
				} else {
					in.ID = -1
				}
			}
		}
	}
	m.finalized = true
}

// Instrs returns the dense table of value-producing (injectable) static
// instructions, indexed by ID, finalizing the module first if needed.
func (m *Module) Instrs() []*Instr {
	m.ensureFinalized()
	return m.instrs
}

// ensureFinalized finalizes a module that is not yet finalized. On a
// finalized module it only reads, unlike Finalize, which rebuilds the shared
// table in place and so must not race with readers.
func (m *Module) ensureFinalized() {
	if !m.finalized {
		m.Finalize()
	}
}

// NumInstrs returns the number of injectable static instructions.
func (m *Module) NumInstrs() int { return len(m.Instrs()) }

// StaticInstructionCount returns the total number of static instructions in
// the module including Void-typed ones (stores, branches, returns) — the
// quantity Table 1 of the paper reports per benchmark.
func (m *Module) StaticInstructionCount() int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

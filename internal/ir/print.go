package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Print renders the module in the textual dialect accepted by Parse. The
// format is line-oriented:
//
//	module <name>
//	entry <funcname>
//
//	func @main(i64 %rows, i64 %cols) i64 {
//	entry:
//	  %v0 : i64 = add(i64 %rows, i64 1)
//	  store(i64 %v0, ptr %buf)
//	  condbr(i1 %c) then, else
//	  %p : i64 = phi([i64 %v0, entry], [i64 1, loop])
//	  %r : f64 = call @sqrt(f64 %x)
//	  ret(i64 %v0)
//	}
//
// Every operand is written as "<type> <value>" where value is a %-register,
// a %-parameter, or a literal. Block targets are bare label names.
//
// Printing a finalized module only reads it, so concurrent Print and Instrs
// calls on a shared compiled program are safe; an unfinalized module is
// finalized first.
func Print(m *Module) string {
	m.ensureFinalized()
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	fmt.Fprintf(&sb, "entry %s\n", m.EntryName)
	for _, f := range m.Funcs {
		sb.WriteString("\n")
		printFunc(&sb, f)
	}
	return sb.String()
}

func printFunc(sb *strings.Builder, f *Function) {
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s %%%s", p.Ty, p.Name)
	}
	fmt.Fprintf(sb, "func @%s(%s) %s {\n", f.Name, strings.Join(params, ", "), f.RetTy)
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(sb, "  %s\n", formatInstr(in))
		}
	}
	sb.WriteString("}\n")
}

func formatOperand(v Value) string {
	switch x := v.(type) {
	case Const:
		if x.Ty == F64 {
			return fmt.Sprintf("f64 %s", formatFloatLiteral(math.Float64frombits(x.Bits)))
		}
		return fmt.Sprintf("%s %d", x.Ty, SignedValue(x.Ty, x.Bits))
	case *Param:
		return fmt.Sprintf("%s %%%s", x.Ty, x.Name)
	case *Instr:
		return fmt.Sprintf("%s %%%s", x.Ty, x.Name)
	default:
		return fmt.Sprintf("?%v", v)
	}
}

// formatFloatLiteral writes a float so that it round-trips exactly.
func formatFloatLiteral(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	if math.IsNaN(v) {
		return "nan"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// Ensure the token is recognizably a float for the parser.
	if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "inf") {
		s += ".0"
	}
	return s
}

func formatInstr(in *Instr) string {
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = formatOperand(a)
	}
	argList := strings.Join(args, ", ")

	var rhs string
	switch in.Op {
	case OpPhi:
		pairs := make([]string, len(in.Args))
		for i := range in.Args {
			pairs[i] = fmt.Sprintf("[%s, %s]", formatOperand(in.Args[i]), in.PhiBlocks[i].Name)
		}
		rhs = fmt.Sprintf("phi(%s)", strings.Join(pairs, ", "))
	case OpCall:
		rhs = fmt.Sprintf("call @%s(%s)", in.Callee, argList)
	case OpBr:
		return fmt.Sprintf("br %s", in.Targets[0].Name)
	case OpCondBr:
		return fmt.Sprintf("condbr(%s) %s, %s", argList, in.Targets[0].Name, in.Targets[1].Name)
	default:
		rhs = fmt.Sprintf("%s(%s)", in.Op, argList)
	}
	if in.Ty == Void {
		return rhs
	}
	return fmt.Sprintf("%%%s : %s = %s", in.Name, in.Ty, rhs)
}

package ir

import (
	"fmt"
	"math"
)

// Value is anything an instruction can take as an operand: a constant, a
// function parameter, or the result of another instruction.
type Value interface {
	// Type returns the static type of the value.
	Type() Type
	// valueString renders the operand for the printer.
	valueString() string
}

// Const is a compile-time constant. Bits holds the raw 64-bit pattern:
// integers are stored in their canonical (zero-extended) form, floats as
// their IEEE-754 bit pattern.
type Const struct {
	Ty   Type
	Bits uint64
}

// Type implements Value.
func (c Const) Type() Type { return c.Ty }

func (c Const) valueString() string {
	switch c.Ty {
	case F64:
		return fmt.Sprintf("%s %v", c.Ty, math.Float64frombits(c.Bits))
	case I1:
		return fmt.Sprintf("i1 %d", c.Bits&1)
	case I32:
		return fmt.Sprintf("i32 %d", int32(uint32(c.Bits)))
	default:
		return fmt.Sprintf("%s %d", c.Ty, int64(c.Bits))
	}
}

// ConstInt returns an integer constant of type ty. The value is truncated to
// the type's width and stored zero-extended.
func ConstInt(ty Type, v int64) Const {
	switch ty {
	case I1:
		return Const{Ty: I1, Bits: uint64(v) & 1}
	case I32:
		return Const{Ty: I32, Bits: uint64(uint32(v))}
	case I64, Ptr:
		return Const{Ty: ty, Bits: uint64(v)}
	default:
		panic(fmt.Sprintf("ir: ConstInt with non-integer type %v", ty))
	}
}

// ConstFloat returns an F64 constant.
func ConstFloat(v float64) Const { return Const{Ty: F64, Bits: math.Float64bits(v)} }

// ConstBool returns an I1 constant.
func ConstBool(v bool) Const {
	if v {
		return Const{Ty: I1, Bits: 1}
	}
	return Const{Ty: I1, Bits: 0}
}

// Param is a formal parameter of a function.
type Param struct {
	Name  string
	Ty    Type
	Index int // position in the parameter list
}

// Type implements Value.
func (p *Param) Type() Type { return p.Ty }

func (p *Param) valueString() string { return fmt.Sprintf("%s %%%s", p.Ty, p.Name) }

// Float64Bits converts a float to the raw slot representation.
func Float64Bits(v float64) uint64 { return math.Float64bits(v) }

// BitsToFloat64 converts a raw slot value back to a float.
func BitsToFloat64(b uint64) float64 { return math.Float64frombits(b) }

// canonMask[ty] keeps the storage bits of integer type ty: bit 0 for I1,
// the low 32 bits for I32, all 64 for every other type.
var canonMask = func() (m [256]uint64) {
	for ty := range m {
		m[ty] = ^uint64(0)
	}
	m[I1] = 1
	m[I32] = 0xFFFFFFFF
	return m
}()

// CanonInt canonicalizes a raw 64-bit pattern to the storage form of an
// integer type: I1 keeps bit 0, I32 keeps the low 32 bits zero-extended,
// I64/Ptr keep all bits. Float and void values pass through unchanged. It
// is one masked load, with no branch on the type.
func CanonInt(ty Type, bits uint64) uint64 { return bits & canonMask[ty] }

// SignedValue interprets a canonical slot value of integer type ty as a
// signed integer.
func SignedValue(ty Type, bits uint64) int64 {
	switch ty {
	case I1:
		return int64(bits & 1)
	case I32:
		return int64(int32(uint32(bits)))
	default:
		return int64(bits)
	}
}

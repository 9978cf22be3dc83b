package ir

import (
	"fmt"
	"strings"
)

// Op enumerates the instruction opcodes of the IR.
type Op uint8

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Integer arithmetic (operands KInt, result KInt).
	OpAdd
	OpSub
	OpMul
	OpDiv // signed division; division by zero traps
	OpRem // signed remainder; division by zero traps
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // arithmetic shift right

	// Float arithmetic (operands KFloat, result KFloat).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Unary.
	OpNeg  // integer negation
	OpFNeg // float negation
	OpNot  // boolean not

	// Comparisons (result KBool). Operands are both KInt, both KFloat,
	// or both KPtr (equality/ordering on addresses).
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Conversions.
	OpIntToFloat // KInt -> KFloat
	OpFloatToInt // KFloat -> KInt (truncation toward zero)

	// Memory.
	OpAlloca // operand 0: size in words (KInt); result KPtr
	OpLoad   // operand 0: address (KPtr); result Elem kind of the pointer
	OpStore  // operand 0: address (KPtr), operand 1: value; no result
	OpAddPtr // operand 0: base (KPtr), operand 1: index (KInt); result KPtr

	// Calls.
	OpCall // Callee set; operands are arguments; result = callee return type

	// Control flow (block terminators).
	OpBr  // operand 0: condition (KBool); Blocks[0] = then, Blocks[1] = else
	OpJmp // Blocks[0] = target
	OpRet // operand 0: return value (absent for void)

	// SSA.
	OpPhi // operands are incoming values; Blocks are incoming blocks
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpNeg: "neg", OpFNeg: "fneg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpIntToFloat: "itof", OpFloatToInt: "ftoi",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpAddPtr: "addptr",
	OpCall: "call",
	OpBr:   "br", OpJmp: "jmp", OpRet: "ret",
	OpPhi: "phi",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpJmp || o == OpRet }

// IsBinaryArith reports whether the opcode is a two-operand arithmetic or
// bitwise operation.
func (o Op) IsBinaryArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv:
		return true
	}
	return false
}

// IsCompare reports whether the opcode is a comparison.
func (o Op) IsCompare() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// HasResult reports whether an instruction with this opcode produces a value.
// OpCall produces a value only when the callee returns non-void; callers must
// check Instr.Ty.
func (o Op) HasResult() bool {
	switch o {
	case OpStore, OpBr, OpJmp, OpRet:
		return false
	}
	return true
}

// Instr is a single IR instruction. Instructions are Values: the result of
// an instruction is named after the instruction itself.
type Instr struct {
	// Op is the opcode.
	Op Op
	// Ty is the result type (Void for instructions without results).
	Ty Type
	// Index is the instruction's position in its function, counting
	// through the blocks in order: a dense key analyses index per-call
	// slices by. Function.Renumber keeps it up to date, as it does
	// Block.Index; inserting or removing instructions makes it stale until
	// the next Renumber. An int32 fits in the padding after Ty, so the
	// field costs an instruction no memory.
	Index int32
	// Nm is the SSA name of the result, unique within its function.
	Nm string
	// Args are the value operands.
	Args []Value
	// Blocks are the block operands: branch targets for OpBr/OpJmp,
	// incoming blocks for OpPhi (parallel to Args).
	Blocks []*Block
	// Callee is the called function for OpCall when calling a user
	// function defined in the module.
	Callee *Function
	// Builtin is the called builtin's name for OpCall when Callee is nil.
	Builtin string
	// Parent is the containing basic block.
	Parent *Block
	// Slot is the dense register index of the instruction's result within
	// its function, assigned by Function.NumberValues after the IR is
	// final. It is -1 for instructions without a result. Interpreters use
	// it to index flat register frames instead of probing a map.
	Slot int
}

// Type implements Value.
func (i *Instr) Type() Type { return i.Ty }

// Name implements Value.
func (i *Instr) Name() string { return "%" + i.Nm }

// CalleeName returns the printable name of the call target.
func (i *Instr) CalleeName() string {
	if i.Callee != nil {
		return i.Callee.Name
	}
	return i.Builtin
}

// String renders the instruction in an LLVM-flavoured syntax.
func (i *Instr) String() string {
	var b strings.Builder
	if i.Op.HasResult() && i.Ty.Kind() != KVoid {
		fmt.Fprintf(&b, "%s = ", i.Name())
	}
	b.WriteString(i.Op.String())
	if i.Op == OpCall {
		fmt.Fprintf(&b, " %s @%s", i.Ty, i.CalleeName())
	} else if i.Op.HasResult() && i.Ty.Kind() != KVoid {
		fmt.Fprintf(&b, " %s", i.Ty)
	}
	switch i.Op {
	case OpPhi:
		for k, a := range i.Args {
			if k > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " [%s, .%s]", a.Name(), i.Blocks[k].Name)
		}
	case OpBr:
		fmt.Fprintf(&b, " %s, .%s, .%s", i.Args[0].Name(), i.Blocks[0].Name, i.Blocks[1].Name)
	case OpJmp:
		fmt.Fprintf(&b, " .%s", i.Blocks[0].Name)
	case OpCall:
		b.WriteString("(")
		for k, a := range i.Args {
			if k > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Name())
		}
		b.WriteString(")")
	default:
		for k, a := range i.Args {
			if k > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %s", a.Name())
		}
	}
	return b.String()
}

// PhiIncoming returns the incoming value of a phi for the given predecessor
// block, or nil if the block is not an incoming edge.
func (i *Instr) PhiIncoming(pred *Block) Value {
	for k, b := range i.Blocks {
		if b == pred {
			return i.Args[k]
		}
	}
	return nil
}

// SetPhiIncoming replaces the incoming value for pred, adding the edge if it
// does not exist yet.
func (i *Instr) SetPhiIncoming(pred *Block, v Value) {
	for k, b := range i.Blocks {
		if b == pred {
			i.Args[k] = v
			return
		}
	}
	i.Blocks = append(i.Blocks, pred)
	i.Args = append(i.Args, v)
}

// ReplaceUses rewrites every operand equal to old with new across the whole
// function containing i's parent. It is a convenience for rewriting passes.
func ReplaceUses(f *Function, old, new Value) {
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			for k, a := range ins.Args {
				if a == old {
					ins.Args[k] = new
				}
			}
		}
	}
}

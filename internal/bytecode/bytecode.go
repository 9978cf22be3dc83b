// Package bytecode compiles analyzed IR modules into a flat, register-
// based bytecode and executes it with a virtual machine that fires the
// exact same interp.Hooks event stream — tick batches, loop
// enter/iterate/exit, memory addresses, LCD observations, definition
// ticks, error taxonomy and messages — as the tree-walking interpreter.
// The tree-walker remains the differential oracle; the VM is the
// production engine.
//
// Each ir.Function lowers once per analysis (memoized on
// analysis.ModuleInfo.Lowered) into a contiguous []Inst of fixed-width
// instructions. The lowering resolves everything the tree-walker decides
// per step at compile time:
//
//   - operands become register indices into a flat frame (the dense
//     ir.Instr.Slot numbering, extended with preloaded constant slots and
//     phi staging temporaries), so there is no ir.Value dispatch;
//   - opcodes are type-specialized (opAddI vs opAddF), so there is no
//     runtime kind dispatch;
//   - branch targets are instruction indices, so there is no block
//     chasing;
//   - loop events are resolved per CFG edge: after LoopSimplify the
//     dynamic loop stack at a block equals the set of loops containing
//     it, so each edge statically knows which exits, which back-edge
//     iteration, or which entry it fires — the VM keeps no loop stack;
//   - dominant instruction pairs fuse into superinstructions
//     (compare+branch, addptr+load, addptr+store, load+add, phi-copy
//     runs), each charging its components' ticks individually so budget
//     trip points stay bit-identical.
package bytecode

import (
	"fmt"
	"strings"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// Op enumerates the bytecode opcodes.
type Op uint8

// The opcodes. Unless noted, A is the destination register, B and C are
// operand registers, and the instruction charges one tick.
const (
	opInvalid Op = iota

	// Integer arithmetic (also covers bool/pointer payloads in Val.I).
	opAddI
	opSubI
	opMulI
	opDivI
	opRemI
	opAndI
	opOrI
	opXorI
	opShlI
	opShrI

	// Float arithmetic.
	opAddF
	opSubF
	opMulF
	opDivF

	// Unary.
	opNegI
	opNegF
	opNotB

	// Comparisons, specialized on the operands' static kind (pointers
	// and bools compare on the integer payload).
	opEqI
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF

	// Conversions.
	opItoF
	opFtoI

	// Memory. Memory holds 64-bit words without kinds, so opLoad and
	// opLoadIdx carry the pointee kind in K and read their word at it;
	// opLoadAddI and opLoadAddF read theirs as int and float.
	opAlloca // A=dst, B=size
	opLoad   // A=dst, B=addr, K=pointee kind
	opStore  // A=value, B=addr
	opAddPtr // A=dst, B=base, C=index

	// Superinstructions. Each charges its components' ticks one
	// component at a time, so step-limit trip points match the
	// tree-walker exactly.
	opLoadIdx  // addptr+load: A=dst, B=base, C=index, K=pointee kind (2 ticks)
	opStoreIdx // addptr+store: A=value, B=base, C=index (2 ticks)
	opLoadAddI // load+add: A=dst, B=addr, C=other operand (2 ticks)
	opLoadAddF // load+fadd: A=dst, B=addr, C=other operand (2 ticks)

	// Fused compare+branch: A=taken target, B/C=operands; the not-taken
	// path falls through (2 ticks: compare, then branch).
	opBrEqI
	opBrNeI
	opBrLtI
	opBrLeI
	opBrGtI
	opBrGeI
	opBrEqF
	opBrNeF
	opBrLtF
	opBrLeF
	opBrGtF
	opBrGeF

	// Control flow.
	opBr   // A=then target, B=condition; else falls through (1 tick)
	opJmp  // A=target: an IR jmp whose edge needs no trampoline (1 tick)
	opGoto // A=target: internal trampoline exit, charges nothing
	opTick // A=n: charge n ticks (the IR jmp ahead of its trampoline)
	opRet  // A=result (-1 void), B=exit table base, C=count (1 tick)

	// Calls.
	opCall  // A=dst (-1 void), B=callee index, C=argument table base (1 tick)
	opCallB // A=dst (-1 void), B=builtin index, C=arg base, K=arity (1 tick + Cost)

	// Loop events (no ticks; flush before firing).
	opLoopExit  // A=exit table base, B=count: ExitLoop innermost-first
	opLoopEnter // A=enter descriptor index
	opLoopIter  // A=iter descriptor index

	// Phi parallel moves. Copy/Commit charge one tick per move with the
	// definition tick recorded before the charge, like the tree-walker.
	opPhiCopy   // A=move table base, B=count: conflict-free direct run
	opPhiStage  // A=move base, B=count, C=tmp base: stage sources, no ticks
	opPhiCommit // A=move base, B=count, C=tmp base: commit staged values

	opCount // sentinel
)

var opNames = [opCount]string{
	opInvalid: "invalid",
	opAddI:    "add.i", opSubI: "sub.i", opMulI: "mul.i", opDivI: "div.i",
	opRemI: "rem.i", opAndI: "and.i", opOrI: "or.i", opXorI: "xor.i",
	opShlI: "shl.i", opShrI: "shr.i",
	opAddF: "add.f", opSubF: "sub.f", opMulF: "mul.f", opDivF: "div.f",
	opNegI: "neg.i", opNegF: "neg.f", opNotB: "not.b",
	opEqI: "eq.i", opNeI: "ne.i", opLtI: "lt.i", opLeI: "le.i",
	opGtI: "gt.i", opGeI: "ge.i",
	opEqF: "eq.f", opNeF: "ne.f", opLtF: "lt.f", opLeF: "le.f",
	opGtF: "gt.f", opGeF: "ge.f",
	opItoF: "itof", opFtoI: "ftoi",
	opAlloca: "alloca", opLoad: "load", opStore: "store", opAddPtr: "addptr",
	opLoadIdx: "load.idx", opStoreIdx: "store.idx",
	opLoadAddI: "load.add.i", opLoadAddF: "load.add.f",
	opBrEqI: "br.eq.i", opBrNeI: "br.ne.i", opBrLtI: "br.lt.i",
	opBrLeI: "br.le.i", opBrGtI: "br.gt.i", opBrGeI: "br.ge.i",
	opBrEqF: "br.eq.f", opBrNeF: "br.ne.f", opBrLtF: "br.lt.f",
	opBrLeF: "br.le.f", opBrGtF: "br.gt.f", opBrGeF: "br.ge.f",
	opBr: "br", opJmp: "jmp", opGoto: "goto", opTick: "tick", opRet: "ret",
	opCall: "call", opCallB: "call.b",
	opLoopExit: "loop.exit", opLoopEnter: "loop.enter", opLoopIter: "loop.iter",
	opPhiCopy: "phi.copy", opPhiStage: "phi.stage", opPhiCommit: "phi.commit",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// isFused reports whether the opcode is a superinstruction covering more
// than one IR instruction.
func (o Op) isFused() bool {
	switch o {
	case opLoadIdx, opStoreIdx, opLoadAddI, opLoadAddF, opPhiCopy:
		return true
	}
	return o >= opBrEqI && o <= opBrGeF
}

// hasPCTarget reports whether A holds an instruction index.
func (o Op) hasPCTarget() bool {
	switch o {
	case opBr, opJmp, opGoto:
		return true
	}
	return o >= opBrEqI && o <= opBrGeF
}

// Inst is one fixed-width bytecode instruction.
type Inst struct {
	// Op is the opcode.
	Op Op
	// K is the auxiliary kind/arity operand (an ir.Kind for loads, the
	// argument count for builtin calls).
	K uint8
	// A, B, C are register indices, instruction indices, or table
	// bases, per opcode.
	A, B, C int32
}

// phiMove is one entry of a phi parallel-move run.
type phiMove struct{ dst, src int32 }

// loopEnter describes one statically-resolved EnterLoop event: the
// registers holding the iteration-zero values of the observed phis along
// this edge (-1 reads as the zero value, matching the tree-walker's
// cleared init buffer).
type loopEnter struct {
	lm   *analysis.LoopMeta
	srcs []int32
}

// loopIter describes one statically-resolved IterLoop event: the
// registers holding the latch incomings of the observed phis, and the
// register slots whose definition ticks accompany them (-1 reports -1,
// the "available at iteration start" marker).
type loopIter struct {
	lm    *analysis.LoopMeta
	srcs  []int32
	ticks []int32
}

// builtinRef is one interned builtin call target.
type builtinRef struct {
	name string
	cost int64
}

// funcCode is the lowered form of one ir.Function.
type funcCode struct {
	fn    *ir.Function
	arity int
	code  []Inst

	// Frame layout: [0,numRegs) are the dense ir slots (params first),
	// [tmpBase,constBase) the phi staging temporaries, and
	// [constBase,frameSize) the preloaded constant pool.
	numRegs   int
	tmpBase   int
	constBase int
	frameSize int
	consts    []interp.Val

	moves   []phiMove
	argRegs []int32
	exits   []*analysis.LoopMeta
	enters  []loopEnter
	iters   []loopIter
}

// Program is a compiled module: one funcCode per function plus the
// interned builtin table. Programs are immutable after Compile and shared
// by every VM executing the module.
type Program struct {
	info       *analysis.ModuleInfo
	mod        *ir.Module
	funcs      []*funcCode
	byName     map[string]*funcCode
	funcIdx    map[*ir.Function]int32
	builtins   []builtinRef
	builtinIdx map[string]int32

	opCounts [opCount]int64
}

// Module returns the compiled module.
func (p *Program) Module() *ir.Module { return p.mod }

// OpCounts returns the static per-opcode lowering histogram, keyed by
// mnemonic — the superinstruction-coverage record benchjson publishes.
func (p *Program) OpCounts() map[string]int64 {
	m := make(map[string]int64)
	for op, n := range p.opCounts {
		if n > 0 {
			m[Op(op).String()] = n
		}
	}
	return m
}

// StaticInsts returns the total number of lowered instructions.
func (p *Program) StaticInsts() int64 {
	var n int64
	for _, c := range p.opCounts {
		n += c
	}
	return n
}

// FusedInsts returns how many lowered instructions are superinstructions
// (each standing in for two or more IR steps).
func (p *Program) FusedInsts() int64 {
	var n int64
	for op, c := range p.opCounts {
		if Op(op).isFused() {
			n += c
		}
	}
	return n
}

// Disasm renders the program's bytecode in a line-per-instruction text
// form (tests and debugging; not a stable format).
func (p *Program) Disasm() string {
	var sb strings.Builder
	for _, fc := range p.funcs {
		fmt.Fprintf(&sb, "func @%s (regs %d, frame %d, consts %d):\n",
			fc.fn.Name, fc.numRegs, fc.frameSize, len(fc.consts))
		for pc, in := range fc.code {
			fmt.Fprintf(&sb, "  %4d  %-12s A=%d B=%d C=%d", pc, in.Op, in.A, in.B, in.C)
			if in.K != 0 {
				fmt.Fprintf(&sb, " K=%d", in.K)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// For returns the compiled program for an analyzed module, lowering it on
// first use and memoizing the result on the ModuleInfo (concurrent
// callers share one compilation).
func For(info *analysis.ModuleInfo) (*Program, error) {
	info.Lowered.Once.Do(func() {
		p, err := Compile(info)
		info.Lowered.Prog, info.Lowered.Err = p, err
	})
	if info.Lowered.Err != nil {
		return nil, info.Lowered.Err
	}
	return info.Lowered.Prog.(*Program), nil
}

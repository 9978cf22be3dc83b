package bytecode

import (
	"fmt"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// Compile lowers every function of an analyzed module to bytecode. The
// module must be in the analysis pipeline's canonical form (or loop-free):
// loop events are resolved statically per CFG edge, which is only sound
// when every loop entry runs through its header and all back edges run
// through the unique latch — exactly what LoopSimplify guarantees.
func Compile(info *analysis.ModuleInfo) (*Program, error) {
	p := &Program{
		info:       info,
		mod:        info.Mod,
		byName:     make(map[string]*funcCode, len(info.Mod.Funcs)),
		funcIdx:    make(map[*ir.Function]int32, len(info.Mod.Funcs)),
		builtinIdx: map[string]int32{},
	}
	// Global addresses replicate the interpreter's deterministic layout
	// (declaration order from GlobalBase). The budget check stays in NewVM:
	// it depends on the per-run heap configuration, not the module.
	gaddr := make(map[*ir.Global]int64, len(p.mod.Globals))
	total := int64(0)
	for _, g := range p.mod.Globals {
		gaddr[g] = interp.GlobalBase + total
		total += g.Size
	}
	for i, f := range p.mod.Funcs {
		p.funcIdx[f] = int32(i)
	}
	for _, f := range p.mod.Funcs {
		// The analysis pipeline numbers every function's blocks and
		// values; cover hand-built modules that skip it (same as
		// interp.New).
		if !f.Numbered() {
			f.Renumber()
			f.NumberValues()
		}
		fc, err := lowerFunc(p, f, gaddr)
		if err != nil {
			return nil, fmt.Errorf("bytecode: @%s: %w", f.Name, err)
		}
		p.funcs = append(p.funcs, fc)
		p.byName[f.Name] = fc
	}
	for _, fc := range p.funcs {
		for _, in := range fc.code {
			p.opCounts[in.Op]++
		}
	}
	return p, nil
}

// constKey identifies a constant for pool dedup. Floats key on their bit
// pattern so -0.0 and 0.0 stay distinct and NaNs never merge.
type constKey struct {
	k    ir.Kind
	bits uint64
}

// pendingTarget marks an instruction whose A operand is a block awaiting
// resolution to a pc.
type pendingTarget struct {
	pc  int32
	blk *ir.Block
}

type lowerer struct {
	p     *Program
	fi    *analysis.FuncInfo // nil for functions outside the analysis
	fn    *ir.Function
	gaddr map[*ir.Global]int64
	fc    *funcCode

	code       []Inst
	constSlots map[constKey]int32
	constPool  []interp.Val
	// uses counts each instruction result's uses, by Instr.Slot.
	uses []int32
	// blockStart is each block's first pc, by Block.Index (-1 until
	// laid out).
	blockStart []int32
	patches    []pendingTarget
	// iterDesc is each loop header's iteration descriptor in fc.iters,
	// by the header's Block.Index (-1 until emitted).
	iterDesc []int32
}

func lowerFunc(p *Program, fn *ir.Function, gaddr map[*ir.Global]int64) (*funcCode, error) {
	lw := &lowerer{
		p:          p,
		fi:         p.info.Funcs[fn],
		fn:         fn,
		gaddr:      gaddr,
		fc:         &funcCode{fn: fn},
		constSlots: map[constKey]int32{},
		uses:       make([]int32, fn.NumRegs()),
		blockStart: make([]int32, len(fn.Blocks)),
		iterDesc:   make([]int32, len(fn.Blocks)),
	}
	for k := range lw.blockStart {
		lw.blockStart[k], lw.iterDesc[k] = -1, -1
	}
	fc := lw.fc
	fc.arity = len(fn.Params)
	fc.numRegs = fn.NumRegs()
	// Frame layout: ir slots, then phi staging temporaries (enough for the
	// widest phi run), then the constant pool (appended during lowering).
	maxPhis := 0
	for _, b := range fn.Blocks {
		if n := b.FirstNonPhi(); n > maxPhis {
			maxPhis = n
		}
		for _, i := range b.Instrs {
			for _, a := range i.Args {
				if d, ok := a.(*ir.Instr); ok && d.Slot >= 0 && d.Slot < len(lw.uses) {
					lw.uses[d.Slot]++
				}
			}
		}
	}
	fc.tmpBase = fc.numRegs
	fc.constBase = fc.numRegs + maxPhis

	if len(fn.Blocks) == 0 {
		return nil, fmt.Errorf("function has no blocks")
	}
	entry := fn.Entry()
	// Function start is an arrival at the entry block with no predecessor:
	// when the entry is itself a loop header, the tree-walker fires
	// EnterLoop with a cleared init buffer before executing it.
	if lm := lw.metaOf(entry); lm != nil {
		srcs := make([]int32, len(lm.Observed))
		for k := range srcs {
			srcs[k] = -1
		}
		fc.enters = append(fc.enters, loopEnter{lm: lm, srcs: srcs})
		lw.code = append(lw.code, Inst{Op: opLoopEnter, A: int32(len(fc.enters) - 1)})
	}
	for _, b := range fn.Blocks {
		if err := lw.lowerBlock(b); err != nil {
			return nil, fmt.Errorf("block .%s: %w", b.Name, err)
		}
	}
	for _, pt := range lw.patches {
		if !fn.HasBlock(pt.blk) || lw.blockStart[pt.blk.Index] < 0 {
			return nil, fmt.Errorf("jump to unknown block .%s", pt.blk.Name)
		}
		lw.code[pt.pc].A = lw.blockStart[pt.blk.Index]
	}
	fc.code = optimize(lw.code)
	fc.consts = lw.constPool
	fc.frameSize = fc.constBase + len(fc.consts)
	return fc, nil
}

// reg resolves an ir.Value to a frame register index: params and
// instruction results use their dense slots, constants and globals intern
// into the per-function constant pool.
func (lw *lowerer) reg(v ir.Value) (int32, error) {
	switch x := v.(type) {
	case *ir.Param:
		return int32(x.Index), nil
	case *ir.Instr:
		if x.Slot < 0 {
			return 0, fmt.Errorf("instruction %%%s has no register slot", x.Nm)
		}
		return int32(x.Slot), nil
	case *ir.IntConst:
		return lw.constSlot(interp.IntVal(x.V)), nil
	case *ir.FloatConst:
		return lw.constSlot(interp.FloatVal(x.V)), nil
	case *ir.BoolConst:
		return lw.constSlot(interp.BoolVal(x.V)), nil
	case *ir.NullConst:
		return lw.constSlot(interp.PtrVal(interp.NullAddr)), nil
	case *ir.Global:
		return lw.constSlot(interp.PtrVal(lw.gaddr[x])), nil
	}
	return 0, fmt.Errorf("unknown value %T", v)
}

func (lw *lowerer) constSlot(v interp.Val) int32 {
	key := constKey{k: v.K, bits: v.Bits()}
	if s, ok := lw.constSlots[key]; ok {
		return s
	}
	s := int32(lw.fc.constBase + len(lw.constPool))
	lw.constSlots[key] = s
	lw.constPool = append(lw.constPool, v)
	return s
}

// metaOf mirrors the tree-walker's header lookup: the dense MetaByBlock
// index when it covers the block, the HeaderMeta map otherwise.
func (lw *lowerer) metaOf(b *ir.Block) *analysis.LoopMeta {
	if lw.fi == nil {
		return nil
	}
	if mb := lw.fi.MetaByBlock; b.Index < len(mb) {
		return mb[b.Index]
	}
	return lw.fi.HeaderMeta[b]
}

func (lw *lowerer) emit(in Inst) { lw.code = append(lw.code, in) }

// useCount returns how many operands name i's result.
func (lw *lowerer) useCount(i *ir.Instr) int {
	if i.Slot < 0 {
		return 0
	}
	return int(lw.uses[i.Slot])
}

// emitPending emits a control transfer whose A target is the start of blk,
// resolved after all blocks are laid out.
func (lw *lowerer) emitPending(op Op, blk *ir.Block) {
	lw.patches = append(lw.patches, pendingTarget{pc: int32(len(lw.code)), blk: blk})
	lw.emit(Inst{Op: op})
}

func (lw *lowerer) lowerBlock(b *ir.Block) error {
	lw.blockStart[b.Index] = int32(len(lw.code))
	ins := b.Instrs
	for k := b.FirstNonPhi(); k < len(ins); k++ {
		i := ins[k]
		switch i.Op {
		case ir.OpJmp:
			return lw.lowerJmp(b, i)
		case ir.OpBr:
			cond, err := lw.reg(i.Args[0])
			if err != nil {
				return err
			}
			return lw.lowerBr(b, i, Inst{Op: opBr, B: cond})
		case ir.OpRet:
			return lw.lowerRet(b, i)
		case ir.OpPhi:
			return fmt.Errorf("phi %%%s after the phi prefix", i.Nm)
		}
		if k+1 < len(ins) {
			next := ins[k+1]
			if brOp, ok := fuseCmpBr(i, next, lw.useCount(i)); ok {
				x, err := lw.reg(i.Args[0])
				if err != nil {
					return err
				}
				y, err := lw.reg(i.Args[1])
				if err != nil {
					return err
				}
				return lw.lowerBr(b, next, Inst{Op: brOp, B: x, C: y})
			}
			if fused, err := lw.tryFusePair(i, next); err != nil {
				return err
			} else if fused {
				k++
				continue
			}
		}
		if err := lw.emitInstr(i); err != nil {
			return err
		}
	}
	return fmt.Errorf("no terminator")
}

// fuseCmpBr reports whether cmp+br lower to a single fused branch: the
// compare immediately precedes the branch, feeds its condition, and has no
// other use (so skipping its register write is unobservable).
func fuseCmpBr(cmp, br *ir.Instr, cmpUses int) (Op, bool) {
	if !cmp.Op.IsCompare() || br.Op != ir.OpBr || cmpUses != 1 || br.Args[0] != cmp {
		return opInvalid, false
	}
	isF := cmp.Args[0].Type().Kind() == ir.KFloat
	var op Op
	switch cmp.Op {
	case ir.OpEq:
		op = opBrEqI
	case ir.OpNe:
		op = opBrNeI
	case ir.OpLt:
		op = opBrLtI
	case ir.OpLe:
		op = opBrLeI
	case ir.OpGt:
		op = opBrGtI
	case ir.OpGe:
		op = opBrGeI
	default:
		return opInvalid, false
	}
	if isF {
		op += opBrEqF - opBrEqI
	}
	return op, true
}

// tryFusePair lowers addptr+load, addptr+store, and load+add pairs into
// superinstructions when the intermediate value is single-use and adjacent.
func (lw *lowerer) tryFusePair(i, next *ir.Instr) (bool, error) {
	if lw.useCount(i) != 1 {
		return false, nil
	}
	switch {
	case i.Op == ir.OpAddPtr && next.Op == ir.OpLoad && next.Args[0] == i:
		base, err := lw.reg(i.Args[0])
		if err != nil {
			return false, err
		}
		idx, err := lw.reg(i.Args[1])
		if err != nil {
			return false, err
		}
		lw.emit(Inst{Op: opLoadIdx, K: uint8(next.Ty.Kind()), A: int32(next.Slot), B: base, C: idx})
		return true, nil
	case i.Op == ir.OpAddPtr && next.Op == ir.OpStore && next.Args[0] == i:
		base, err := lw.reg(i.Args[0])
		if err != nil {
			return false, err
		}
		idx, err := lw.reg(i.Args[1])
		if err != nil {
			return false, err
		}
		val, err := lw.reg(next.Args[1])
		if err != nil {
			return false, err
		}
		lw.emit(Inst{Op: opStoreIdx, A: val, B: base, C: idx})
		return true, nil
	case i.Op == ir.OpLoad && (next.Op == ir.OpAdd || next.Op == ir.OpFAdd) && next.Args[0] == i:
		addr, err := lw.reg(i.Args[0])
		if err != nil {
			return false, err
		}
		other, err := lw.reg(next.Args[1])
		if err != nil {
			return false, err
		}
		op := opLoadAddI
		if next.Op == ir.OpFAdd {
			op = opLoadAddF
		}
		lw.emit(Inst{Op: op, A: int32(next.Slot), B: addr, C: other})
		return true, nil
	}
	return false, nil
}

// lowerJmp lowers an unconditional terminator: the jump's tick, the edge
// trampoline (loop events + phi moves), and the transfer. An empty
// trampoline collapses to a single ticking jump.
func (lw *lowerer) lowerJmp(b *ir.Block, i *ir.Instr) error {
	tgt := i.Blocks[0]
	mark := len(lw.code)
	lw.emit(Inst{Op: opTick, A: 1})
	if err := lw.emitEdge(b, tgt); err != nil {
		return err
	}
	if len(lw.code) == mark+1 {
		lw.code = lw.code[:mark]
		lw.emitPending(opJmp, tgt)
		return nil
	}
	lw.emitPending(opGoto, tgt)
	return nil
}

// lowerBr lowers a conditional terminator (plain or compare-fused): the
// branch instruction with the taken path as its target, then the
// fall-through (else) edge region, then the taken (then) edge region.
func (lw *lowerer) lowerBr(b *ir.Block, br *ir.Instr, brInst Inst) error {
	brPC := len(lw.code)
	lw.emit(brInst)
	if err := lw.emitEdge(b, br.Blocks[1]); err != nil {
		return err
	}
	lw.emitPending(opGoto, br.Blocks[1])
	lw.code[brPC].A = int32(len(lw.code))
	if err := lw.emitEdge(b, br.Blocks[0]); err != nil {
		return err
	}
	lw.emitPending(opGoto, br.Blocks[0])
	return nil
}

// lowerRet lowers a return: leaving the function exits every loop
// containing the returning block, innermost first.
func (lw *lowerer) lowerRet(b *ir.Block, i *ir.Instr) error {
	ret := int32(-1)
	if len(i.Args) == 1 {
		r, err := lw.reg(i.Args[0])
		if err != nil {
			return err
		}
		ret = r
	}
	base := int32(len(lw.fc.exits))
	n := int32(0)
	if lw.fi != nil && lw.fi.Forest != nil {
		for l := lw.fi.Forest.LoopOf(b); l != nil; l = l.Parent {
			if lm := lw.fi.HeaderMeta[l.Header]; lm != nil {
				lw.fc.exits = append(lw.fc.exits, lm)
				n++
			}
		}
	}
	lw.emit(Inst{Op: opRet, A: ret, B: base, C: n})
	return nil
}

// emitEdge lowers the trampoline for a control transfer p->c: loop exits
// (innermost first), then the loop enter/iterate event when c is a header,
// then the phi parallel moves — the tree-walker's exact event order.
func (lw *lowerer) emitEdge(p, c *ir.Block) error {
	if lw.fi != nil {
		// Exits: loops containing p but not c. The dynamic loop stack at p
		// holds exactly the loops containing p (canonical form: every loop
		// entry runs through its header), so popping non-containing loops
		// equals walking the nest from the innermost until one contains c.
		if lw.fi.Forest != nil {
			base, n := int32(len(lw.fc.exits)), int32(0)
			for l := lw.fi.Forest.LoopOf(p); l != nil && !l.Contains(c); l = l.Parent {
				if lm := lw.fi.HeaderMeta[l.Header]; lm != nil {
					lw.fc.exits = append(lw.fc.exits, lm)
					n++
				}
			}
			if n > 0 {
				lw.emit(Inst{Op: opLoopExit, A: base, B: n})
			}
		}
		if lm := lw.metaOf(c); lm != nil {
			if lm.Loop.Contains(p) {
				// Back edge: the iteration observation reads the latch
				// incomings, one descriptor per loop.
				idx := lw.iterDesc[c.Index]
				if idx < 0 {
					d := loopIter{lm: lm}
					for _, inc := range lm.ObservedLatch {
						if inc == nil {
							return fmt.Errorf("loop %s: observed phi has no latch incoming", lm.ID())
						}
						s, err := lw.reg(inc)
						if err != nil {
							return err
						}
						ts := int32(-1)
						if ii, ok := inc.(*ir.Instr); ok {
							ts = int32(ii.Slot)
						}
						d.srcs = append(d.srcs, s)
						d.ticks = append(d.ticks, ts)
					}
					idx = int32(len(lw.fc.iters))
					lw.fc.iters = append(lw.fc.iters, d)
					lw.iterDesc[c.Index] = idx
				}
				lw.emit(Inst{Op: opLoopIter, A: idx})
			} else {
				// Loop entry: iteration-zero values are the phi incomings
				// along this edge (-1 = no incoming, reads as zero).
				d := loopEnter{lm: lm, srcs: make([]int32, len(lm.Observed))}
				for k, phi := range lm.Observed {
					d.srcs[k] = -1
					if inc := phi.PhiIncoming(p); inc != nil {
						s, err := lw.reg(inc)
						if err != nil {
							return err
						}
						d.srcs[k] = s
					}
				}
				lw.emit(Inst{Op: opLoopEnter, A: int32(len(lw.fc.enters))})
				lw.fc.enters = append(lw.fc.enters, d)
			}
		}
	}
	nPhi := c.FirstNonPhi()
	if nPhi == 0 {
		return nil
	}
	base := len(lw.fc.moves)
	direct := true
	for k := 0; k < nPhi; k++ {
		phi := c.Instrs[k]
		inc := phi.PhiIncoming(p)
		if inc == nil {
			return fmt.Errorf("phi %%%s has no incoming from .%s", phi.Nm, p.Name)
		}
		src, err := lw.reg(inc)
		if err != nil {
			return err
		}
		// A source that an earlier move in the run overwrites forces the
		// stage-then-commit form (parallel assignment semantics).
		for j := base; j < len(lw.fc.moves); j++ {
			if lw.fc.moves[j].dst == src {
				direct = false
			}
		}
		lw.fc.moves = append(lw.fc.moves, phiMove{dst: int32(phi.Slot), src: src})
	}
	if direct {
		lw.emit(Inst{Op: opPhiCopy, A: int32(base), B: int32(nPhi)})
	} else {
		lw.emit(Inst{Op: opPhiStage, A: int32(base), B: int32(nPhi), C: int32(lw.fc.tmpBase)})
		lw.emit(Inst{Op: opPhiCommit, A: int32(base), B: int32(nPhi), C: int32(lw.fc.tmpBase)})
	}
	return nil
}

// emitInstr lowers one non-fused body instruction.
func (lw *lowerer) emitInstr(i *ir.Instr) error {
	bin := func(op Op) error {
		x, err := lw.reg(i.Args[0])
		if err != nil {
			return err
		}
		y, err := lw.reg(i.Args[1])
		if err != nil {
			return err
		}
		lw.emit(Inst{Op: op, A: int32(i.Slot), B: x, C: y})
		return nil
	}
	un := func(op Op) error {
		x, err := lw.reg(i.Args[0])
		if err != nil {
			return err
		}
		lw.emit(Inst{Op: op, A: int32(i.Slot), B: x})
		return nil
	}
	switch i.Op {
	case ir.OpAdd:
		return bin(opAddI)
	case ir.OpSub:
		return bin(opSubI)
	case ir.OpMul:
		return bin(opMulI)
	case ir.OpDiv:
		return bin(opDivI)
	case ir.OpRem:
		return bin(opRemI)
	case ir.OpAnd:
		return bin(opAndI)
	case ir.OpOr:
		return bin(opOrI)
	case ir.OpXor:
		return bin(opXorI)
	case ir.OpShl:
		return bin(opShlI)
	case ir.OpShr:
		return bin(opShrI)
	case ir.OpFAdd:
		return bin(opAddF)
	case ir.OpFSub:
		return bin(opSubF)
	case ir.OpFMul:
		return bin(opMulF)
	case ir.OpFDiv:
		return bin(opDivF)
	case ir.OpNeg:
		return un(opNegI)
	case ir.OpFNeg:
		return un(opNegF)
	case ir.OpNot:
		return un(opNotB)
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		// Specialize on the operands' static kind: bools and pointers
		// compare on the integer payload, like the tree-walker's dynamic
		// dispatch (which can only differ under type punning the frontend
		// never produces).
		op := opEqI + Op(i.Op-ir.OpEq)
		if i.Args[0].Type().Kind() == ir.KFloat {
			op = opEqF + Op(i.Op-ir.OpEq)
		}
		return bin(op)
	case ir.OpIntToFloat:
		return un(opItoF)
	case ir.OpFloatToInt:
		return un(opFtoI)
	case ir.OpAlloca:
		return un(opAlloca)
	case ir.OpLoad:
		x, err := lw.reg(i.Args[0])
		if err != nil {
			return err
		}
		lw.emit(Inst{Op: opLoad, K: uint8(i.Ty.Kind()), A: int32(i.Slot), B: x})
		return nil
	case ir.OpStore:
		addr, err := lw.reg(i.Args[0])
		if err != nil {
			return err
		}
		val, err := lw.reg(i.Args[1])
		if err != nil {
			return err
		}
		lw.emit(Inst{Op: opStore, A: val, B: addr})
		return nil
	case ir.OpAddPtr:
		return bin(opAddPtr)
	case ir.OpCall:
		return lw.emitCall(i)
	}
	return fmt.Errorf("unhandled opcode %s", i.Op)
}

func (lw *lowerer) emitCall(i *ir.Instr) error {
	dst := int32(-1)
	if i.Ty.Kind() != ir.KVoid {
		dst = int32(i.Slot)
	}
	argBase := int32(len(lw.fc.argRegs))
	for _, a := range i.Args {
		s, err := lw.reg(a)
		if err != nil {
			return err
		}
		lw.fc.argRegs = append(lw.fc.argRegs, s)
	}
	if i.Callee != nil {
		fidx, ok := lw.p.funcIdx[i.Callee]
		if !ok {
			return fmt.Errorf("call to unknown function @%s", i.Callee.Name)
		}
		if len(i.Args) != len(i.Callee.Params) {
			return fmt.Errorf("call to @%s passes %d args, want %d",
				i.Callee.Name, len(i.Args), len(i.Callee.Params))
		}
		lw.emit(Inst{Op: opCall, A: dst, B: fidx, C: argBase})
		return nil
	}
	bi, ok := ir.BuiltinAttr(i.Builtin)
	if !ok {
		return fmt.Errorf("unknown builtin %q", i.Builtin)
	}
	// The tree-walker evaluates at most two arguments (no registered
	// builtin takes more); mirror the clamp.
	n := len(i.Args)
	if n > 2 {
		n = 2
	}
	bidx := lw.p.internBuiltin(i.Builtin, bi.Cost)
	lw.emit(Inst{Op: opCallB, K: uint8(n), A: dst, B: bidx, C: argBase})
	return nil
}

func (p *Program) internBuiltin(name string, cost int64) int32 {
	if idx, ok := p.builtinIdx[name]; ok {
		return idx
	}
	idx := int32(len(p.builtins))
	p.builtins = append(p.builtins, builtinRef{name: name, cost: cost})
	p.builtinIdx[name] = idx
	return idx
}

// optimize threads jumps through goto chains, elides untargeted
// goto-to-next instructions, and compacts the stream, iterating to a
// fixpoint (bounded — each round strictly shrinks the code).
func optimize(code []Inst) []Inst {
	for round := 0; round < len(code); round++ {
		// Thread every pc target through chains of internal gotos: landing
		// on a goto just redirects, so jump straight to its destination.
		for pc := range code {
			if !code[pc].Op.hasPCTarget() {
				continue
			}
			t := code[pc].A
			for hops := 0; hops < len(code) && code[t].Op == opGoto && code[t].A != t; hops++ {
				t = code[t].A
			}
			code[pc].A = t
		}
		// A goto that transfers to the next instruction and is not itself
		// a jump target is a no-op: remove it. (Threading above retargeted
		// everything that pointed at a goto, so targets survive removal.)
		targeted := make([]bool, len(code))
		for pc := range code {
			if code[pc].Op.hasPCTarget() {
				targeted[code[pc].A] = true
			}
		}
		newPC := make([]int32, len(code))
		kept := code[:0]
		removed := false
		for pc := range code {
			newPC[pc] = int32(len(kept))
			if code[pc].Op == opGoto && code[pc].A == int32(pc+1) && !targeted[pc] {
				removed = true
				continue
			}
			kept = append(kept, code[pc])
		}
		code = kept
		for pc := range code {
			if code[pc].Op.hasPCTarget() {
				code[pc].A = newPC[code[pc].A]
			}
		}
		if !removed {
			break
		}
	}
	return code
}

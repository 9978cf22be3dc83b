package analysis

import (
	"loopapalooza/internal/ir"
)

// DeadCodeElim removes instructions whose results are never used and that
// have no side effects (everything except stores, calls, and terminators).
// It iterates to a fixed point, so cyclic groups of dead phis — the
// artifacts of non-pruned SSA construction — disappear, matching the effect
// of LLVM's -O pipeline after mem2reg. It returns the number of
// instructions removed.
func DeadCodeElim(f *ir.Function) int {
	// Mark-and-sweep: roots are side-effecting instructions; liveness
	// propagates through operands. Cyclic groups of dead phis are never
	// marked and are swept together. The live set is indexed by
	// Instr.Index; an operand f does not own is no instruction of f and
	// stays unmarked.
	live := make([]bool, f.Renumber())
	var work []*ir.Instr
	mark := func(v ir.Value) {
		if i, ok := v.(*ir.Instr); ok && f.Owns(i) && !live[i.Index] {
			live[i.Index] = true
			work = append(work, i)
		}
	}
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpStore, ir.OpCall, ir.OpBr, ir.OpJmp, ir.OpRet:
				mark(i)
			}
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range i.Args {
			mark(a)
		}
	}
	removed := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, i := range b.Instrs {
			if live[i.Index] {
				kept = append(kept, i)
			} else {
				removed++
			}
		}
		// Clear the tail, so the removed instructions are not kept
		// reachable from the block's backing array.
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
	return removed
}

// RemoveUnreachable deletes blocks not reachable from the entry and prunes
// phi incomings that referenced them. It returns the number of blocks
// removed. Run before SSA construction: unreachable code would otherwise
// keep references to promoted allocas alive.
func RemoveUnreachable(f *ir.Function) int {
	f.Renumber()
	reach := make([]bool, len(f.Blocks))
	stack := []*ir.Block{f.Entry()}
	reach[f.Entry().Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s.Index] {
				reach[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	removed := 0
	for _, r := range reach {
		if !r {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	old := f.Blocks
	// dead holds for the blocks being removed, under the old numbering; a
	// block of another function is not one of them.
	dead := func(b *ir.Block) bool { return f.HasBlock(b) && !reach[b.Index] }
	kept := make([]*ir.Block, 0, len(old)-removed)
	for _, b := range old {
		if !reach[b.Index] {
			continue
		}
		kept = append(kept, b)
		for _, phi := range b.Phis() {
			var args []ir.Value
			var blocks []*ir.Block
			for k, in := range phi.Blocks {
				if !dead(in) {
					args = append(args, phi.Args[k])
					blocks = append(blocks, in)
				}
			}
			phi.Args, phi.Blocks = args, blocks
		}
	}
	f.Blocks = kept
	f.Renumber()
	return removed
}

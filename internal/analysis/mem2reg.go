package analysis

import (
	"loopapalooza/internal/ir"
)

// Mem2Reg promotes single-cell stack allocations whose address never escapes
// into SSA values, inserting phi nodes at iterated dominance frontiers
// (Cytron et al.). This mirrors LLVM's mem2reg and is what turns the front
// end's variable slots into the register loop-carried dependencies the limit
// study classifies.
//
// It returns the number of allocas promoted.
func Mem2Reg(f *ir.Function) int {
	dt := BuildDomTree(f)
	promotable := collectPromotable(f, dt)
	if len(promotable) == 0 {
		return 0
	}

	df := dt.Frontiers()

	// Insert phis at the iterated dominance frontier of the stores.
	phiFor := map[*ir.Instr]*ir.Instr{} // phi -> alloca
	for _, a := range promotable {
		elem := a.Ty.Elem()
		defBlocks := map[*ir.Block]bool{}
		for _, b := range f.Blocks {
			for _, i := range b.Instrs {
				if i.Op == ir.OpStore && i.Args[0] == a {
					defBlocks[b] = true
				}
			}
		}
		work := make([]*ir.Block, 0, len(defBlocks))
		for b := range defBlocks {
			work = append(work, b)
		}
		hasPhi := map[*ir.Block]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b.Index] {
				if hasPhi[fb] {
					continue
				}
				hasPhi[fb] = true
				phi := &ir.Instr{Op: ir.OpPhi, Ty: elem, Nm: f.NextName(a.Nm + ".phi")}
				fb.InsertBefore(fb.FirstNonPhi(), phi)
				phi.Parent = fb
				phiFor[phi] = a
				if !defBlocks[fb] {
					defBlocks[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Rename along the dominator tree.
	cur := map[*ir.Instr][]ir.Value{} // alloca -> value stack
	zero := func(a *ir.Instr) ir.Value {
		switch a.Ty.Elem().Kind() {
		case ir.KFloat:
			return ir.ConstFloat(0)
		case ir.KBool:
			return ir.ConstBool(false)
		case ir.KPtr:
			return ir.ConstNull(a.Ty.Elem())
		default:
			return ir.ConstInt(0)
		}
	}
	top := func(a *ir.Instr) ir.Value {
		s := cur[a]
		if len(s) == 0 {
			return zero(a)
		}
		return s[len(s)-1]
	}
	isPromoted := map[ir.Value]bool{}
	for _, a := range promotable {
		isPromoted[a] = true
	}

	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		pushed := map[*ir.Instr]int{}
		kept := b.Instrs[:0]
		for _, i := range b.Instrs {
			switch {
			case i.Op == ir.OpPhi && phiFor[i] != nil:
				a := phiFor[i]
				cur[a] = append(cur[a], i)
				pushed[a]++
				kept = append(kept, i)
			case i.Op == ir.OpAlloca && isPromoted[i]:
				// drop
			case i.Op == ir.OpLoad && isPromoted[i.Args[0]]:
				a := i.Args[0].(*ir.Instr)
				ir.ReplaceUses(f, i, top(a))
			case i.Op == ir.OpStore && isPromoted[i.Args[0]]:
				a := i.Args[0].(*ir.Instr)
				cur[a] = append(cur[a], i.Args[1])
				pushed[a]++
			default:
				kept = append(kept, i)
			}
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept

		// Fill phi incomings of successors.
		for _, s := range b.Succs() {
			for _, phi := range s.Phis() {
				if a := phiFor[phi]; a != nil {
					phi.SetPhiIncoming(b, top(a))
				}
			}
		}
		for _, c := range dt.Children(b) {
			rename(c)
		}
		for a, n := range pushed {
			cur[a] = cur[a][:len(cur[a])-n]
		}
	}
	rename(f.Entry())

	// A load that was replaced by another load's value chain can leave
	// phis with self-references only; leave cleanup to SimplifyPhis.
	SimplifyPhis(f)
	return len(promotable)
}

// collectPromotable returns allocas of constant size 1 whose only uses are
// direct loads and stores of the slot (the address never escapes).
func collectPromotable(f *ir.Function, dt *DomTree) []*ir.Instr {
	var allocas []*ir.Instr
	bad := map[*ir.Instr]bool{}
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, i := range b.Instrs {
			if i.Op == ir.OpAlloca {
				if n, ok := ir.ConstIntValue(i.Args[0]); ok && n == 1 && b == f.Entry() {
					allocas = append(allocas, i)
				} else {
					bad[i] = true
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			for k, arg := range i.Args {
				a, ok := arg.(*ir.Instr)
				if !ok || a.Op != ir.OpAlloca {
					continue
				}
				switch {
				case i.Op == ir.OpLoad && k == 0:
				case i.Op == ir.OpStore && k == 0:
				default:
					bad[a] = true // address escapes
				}
			}
		}
	}
	var out []*ir.Instr
	for _, a := range allocas {
		if !bad[a] {
			out = append(out, a)
		}
	}
	return out
}

// SimplifyPhis removes trivial phis: a phi whose incoming values are all
// equal (or equal to the phi itself) is replaced by that value. It iterates
// to a fixed point and returns the number of phis removed.
func SimplifyPhis(f *ir.Function) int {
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for idx := 0; idx < len(b.Instrs); idx++ {
				i := b.Instrs[idx]
				if i.Op != ir.OpPhi {
					break
				}
				var uniq ir.Value
				trivial := true
				for _, a := range i.Args {
					if a == i {
						continue
					}
					if uniq == nil {
						uniq = a
					} else if !sameValue(uniq, a) {
						trivial = false
						break
					}
				}
				if trivial && uniq != nil {
					ir.ReplaceUses(f, i, uniq)
					b.RemoveAt(idx)
					idx--
					removed++
					changed = true
				}
			}
		}
	}
	return removed
}

func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	if x, ok := ir.ConstIntValue(a); ok {
		if y, ok2 := ir.ConstIntValue(b); ok2 {
			return x == y
		}
	}
	if x, ok := a.(*ir.FloatConst); ok {
		if y, ok2 := b.(*ir.FloatConst); ok2 {
			return x.V == y.V
		}
	}
	if x, ok := a.(*ir.BoolConst); ok {
		if y, ok2 := b.(*ir.BoolConst); ok2 {
			return x.V == y.V
		}
	}
	if x, ok := a.(*ir.NullConst); ok {
		if y, ok2 := b.(*ir.NullConst); ok2 {
			return x.Ty == y.Ty
		}
	}
	return false
}

package analysis

import (
	"fmt"
	"slices"
	"sort"

	"loopapalooza/internal/ir"
)

// Loop is a natural loop of the CFG. After LoopSimplify the loop is in
// canonical form: it has a dedicated Preheader (the unique edge into the
// header from outside the loop) and a unique Latch (the unique back edge).
type Loop struct {
	// Header is the loop header (the target of the back edge; it
	// dominates every block in the loop).
	Header *ir.Block
	// Latch is the unique in-loop predecessor of the header after
	// LoopSimplify; nil before simplification if there are several.
	Latch *ir.Block
	// Preheader is the unique out-of-loop predecessor of the header
	// after LoopSimplify.
	Preheader *ir.Block
	// Blocks is the set of blocks in the loop, header included.
	Blocks map[*ir.Block]bool
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	// Children are the immediately nested loops.
	Children []*Loop
	// Depth is the nesting depth (1 for top-level loops).
	Depth int
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// ID returns a stable identifier for the loop within its module:
// "function:header".
func (l *Loop) ID() string {
	return fmt.Sprintf("%s:%s", l.Header.Parent.Name, l.Header.Name)
}

// Exits returns the out-of-loop blocks that have a predecessor inside the
// loop, in deterministic order.
func (l *Loop) Exits() []*ir.Block {
	seen := map[*ir.Block]bool{}
	var exits []*ir.Block
	for _, b := range blocksInOrder(l) {
		for _, s := range b.Succs() {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				exits = append(exits, s)
			}
		}
	}
	return exits
}

func blocksInOrder(l *Loop) []*ir.Block {
	var bs []*ir.Block
	for _, b := range l.Header.Parent.Blocks {
		if l.Blocks[b] {
			bs = append(bs, b)
		}
	}
	return bs
}

// LoopForest is the set of loops of one function, as a nesting forest.
type LoopForest struct {
	// Top are the outermost loops in header order.
	Top []*Loop
	// All lists every loop, outer loops before their children.
	All []*Loop
	// ByHeader maps a header block to its loop.
	ByHeader map[*ir.Block]*Loop
}

// LoopOf returns the innermost loop containing b, or nil.
func (fst *LoopForest) LoopOf(b *ir.Block) *Loop {
	var best *Loop
	for _, l := range fst.All {
		if l.Blocks[b] && (best == nil || l.Depth > best.Depth) {
			best = l
		}
	}
	return best
}

// FindLoops discovers the natural loops of f using back edges in the
// dominator tree, merging loops that share a header.
func FindLoops(f *ir.Function, dt *DomTree) *LoopForest {
	forest := &LoopForest{ByHeader: map[*ir.Block]*Loop{}}

	// A back edge is a->h where h dominates a.
	for _, a := range dt.RPO() {
		for _, h := range a.Succs() {
			if !dt.Dominates(h, a) {
				continue
			}
			l := forest.ByHeader[h]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[*ir.Block]bool{h: true}}
				forest.ByHeader[h] = l
				forest.All = append(forest.All, l)
			}
			// Grow the body: everything that reaches the latch
			// without passing through the header.
			stack := []*ir.Block{a}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[b] {
					continue
				}
				l.Blocks[b] = true
				for _, p := range dt.Preds()[b.Index] {
					if dt.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}

	// Nesting: sort by body size ascending so the innermost enclosing
	// loop of each loop is the smallest strict superset.
	sorted := append([]*Loop(nil), forest.All...)
	sort.Slice(sorted, func(i, j int) bool {
		if len(sorted[i].Blocks) != len(sorted[j].Blocks) {
			return len(sorted[i].Blocks) < len(sorted[j].Blocks)
		}
		return sorted[i].Header.Index < sorted[j].Header.Index
	})
	for i, l := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].Blocks[l.Header] {
				l.Parent = sorted[j]
				sorted[j].Children = append(sorted[j].Children, l)
				break
			}
		}
	}
	for _, l := range sorted {
		if l.Parent == nil {
			forest.Top = append(forest.Top, l)
		}
	}
	sort.Slice(forest.Top, func(i, j int) bool { return forest.Top[i].Header.Index < forest.Top[j].Header.Index })
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		sort.Slice(l.Children, func(i, j int) bool { return l.Children[i].Header.Index < l.Children[j].Header.Index })
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	// Re-list All outer-first.
	forest.All = forest.All[:0]
	var list func(l *Loop)
	list = func(l *Loop) {
		forest.All = append(forest.All, l)
		for _, c := range l.Children {
			list(c)
		}
	}
	for _, l := range forest.Top {
		setDepth(l, 1)
		list(l)
	}

	// Record latch/preheader when already unique.
	for _, l := range forest.All {
		fillCanonical(l, dt)
	}
	return forest
}

func fillCanonical(l *Loop, dt *DomTree) {
	var inside, outside []*ir.Block
	for _, p := range dt.Preds()[l.Header.Index] {
		if l.Blocks[p] {
			inside = append(inside, p)
		} else {
			outside = append(outside, p)
		}
	}
	if len(inside) == 1 {
		l.Latch = inside[0]
	}
	if len(outside) == 1 && len(outside[0].Succs()) == 1 {
		l.Preheader = outside[0]
	}
}

// LoopSimplify canonicalizes every loop of f, mirroring LLVM's loopsimplify
// pass: it guarantees a dedicated preheader and a unique latch for every
// natural loop, splitting edges and rewriting header phis as needed.
// It returns the recomputed dominator tree and loop forest.
func LoopSimplify(f *ir.Function) (*DomTree, *LoopForest) {
	splitEntryIfNeeded(f)
	for {
		dt := BuildDomTree(f)
		forest := FindLoops(f, dt)
		changed := false
		for _, l := range forest.All {
			var inside, outside []*ir.Block
			for _, p := range dt.Preds()[l.Header.Index] {
				if l.Blocks[p] {
					inside = append(inside, p)
				} else {
					outside = append(outside, p)
				}
			}
			if l.Preheader == nil && len(outside) > 0 {
				mergeEdges(f, outside, l.Header, l.Header.Name+".pre")
				changed = true
				break // CFG changed: recompute and restart
			}
			if l.Latch == nil && len(inside) > 1 {
				mergeEdges(f, inside, l.Header, l.Header.Name+".latch")
				changed = true
				break
			}
		}
		if !changed {
			return dt, forest
		}
	}
}

// splitEntryIfNeeded gives f a predecessor-free entry block (an LLVM
// invariant this IR does not enforce): if anything branches to the current
// entry, a fresh entry that jumps to it is prepended, so the old entry can
// be a canonical loop header with a preheader.
func splitEntryIfNeeded(f *ir.Function) {
	old := f.Entry()
	if !hasPred(f, old) {
		return
	}
	ne := &ir.Block{Name: f.NextName("entry"), Parent: f}
	ne.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.Void, Blocks: []*ir.Block{old}})
	// Phis in the old entry (if any) need an incoming for the new edge:
	// on the function-start path the value is undefined, i.e. zero.
	for _, phi := range old.Phis() {
		var zero ir.Value
		switch phi.Ty.Kind() {
		case ir.KFloat:
			zero = ir.ConstFloat(0)
		case ir.KBool:
			zero = ir.ConstBool(false)
		case ir.KPtr:
			zero = ir.ConstNull(phi.Ty)
		default:
			zero = ir.ConstInt(0)
		}
		phi.SetPhiIncoming(ne, zero)
	}
	f.Blocks = append([]*ir.Block{ne}, f.Blocks...)
	f.Renumber()
}

// hasPred reports whether any block of f branches to b.
func hasPred(f *ir.Function, b *ir.Block) bool {
	for _, p := range f.Blocks {
		if slices.Contains(p.Succs(), b) {
			return true
		}
	}
	return false
}

// mergeEdges splits the edges preds->target through a fresh block that jumps
// to target, updating target's phis. When several preds are merged, the new
// block receives phis combining their incoming values.
func mergeEdges(f *ir.Function, preds []*ir.Block, target *ir.Block, name string) *ir.Block {
	nb := f.NewBlock(name)
	// Build replacement phis in nb for each phi in target.
	for _, phi := range target.Phis() {
		var merged ir.Value
		if len(preds) == 1 {
			merged = phi.PhiIncoming(preds[0])
		} else {
			np := &ir.Instr{Op: ir.OpPhi, Ty: phi.Ty, Nm: f.NextName(phi.Nm + ".m")}
			for _, p := range preds {
				np.SetPhiIncoming(p, phi.PhiIncoming(p))
			}
			nb.InsertBefore(nb.FirstNonPhi(), np)
			merged = np
		}
		// Remove old incomings, add one from nb.
		var keepArgs []ir.Value
		var keepBlocks []*ir.Block
		for k, in := range phi.Blocks {
			drop := false
			for _, p := range preds {
				if in == p {
					drop = true
					break
				}
			}
			if !drop {
				keepArgs = append(keepArgs, phi.Args[k])
				keepBlocks = append(keepBlocks, phi.Blocks[k])
			}
		}
		phi.Args, phi.Blocks = keepArgs, keepBlocks
		phi.SetPhiIncoming(nb, merged)
	}
	nb.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.Void, Blocks: []*ir.Block{target}})
	// Redirect the edges.
	for _, p := range preds {
		t := p.Terminator()
		for k, tgt := range t.Blocks {
			if tgt == target {
				t.Blocks[k] = nb
			}
		}
	}
	f.Renumber()
	return nb
}

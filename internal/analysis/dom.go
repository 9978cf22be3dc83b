// Package analysis implements the compile-time component of Loopapalooza:
// the CFG analyses (dominators, natural loops), the canonicalization passes
// (loop simplification, SSA promotion), and the dependence-classification
// analyses (scalar evolution, reduction recognition, function purity) that
// the paper obtains from LLVM's loopsimplify, indvars, SCEV and
// induction-variable-users passes.
package analysis

import (
	"slices"

	"loopapalooza/internal/ir"
)

// DomTree is a dominator tree of a function's CFG, built with the
// Cooper-Harvey-Kennedy iterative algorithm. Blocks unreachable from the
// entry have Idom == nil and are excluded from dominance queries.
type DomTree struct {
	fn *ir.Function
	// idom[i] is the immediate dominator of block with Index i
	// (nil for the entry and for unreachable blocks).
	idom []*ir.Block
	// children[i] are the blocks immediately dominated by block i.
	children [][]*ir.Block
	// rpo is the reverse post-order of reachable blocks.
	rpo []*ir.Block
	// rpoNum[i] is the position of block i in rpo (-1 if unreachable).
	rpoNum []int
	preds  [][]*ir.Block
}

// BuildDomTree computes the dominator tree of f. It renumbers f's blocks.
func BuildDomTree(f *ir.Function) *DomTree {
	f.Renumber()
	n := len(f.Blocks)
	t := &DomTree{
		fn:     f,
		idom:   make([]*ir.Block, n),
		rpoNum: make([]int, n),
		rpo:    make([]*ir.Block, 0, n),
		preds:  f.Preds(),
	}
	for i := range t.rpoNum {
		t.rpoNum[i] = -1
	}

	// Depth-first post-order from the entry, reversed in place.
	t.postorder(f.Entry())
	slices.Reverse(t.rpo)
	for k, b := range t.rpo {
		t.rpoNum[b.Index] = k
	}

	// Cooper-Harvey-Kennedy iteration.
	entry := f.Entry()
	t.idom[entry.Index] = entry // temporary self-idom sentinel
	for changed := true; changed; {
		changed = false
		for _, b := range t.rpo[1:] {
			var newIdom *ir.Block
			for _, p := range t.preds[b.Index] {
				if t.rpoNum[p.Index] < 0 || t.idom[p.Index] == nil {
					continue // unreachable or unprocessed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.Index] != newIdom {
				t.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	t.idom[entry.Index] = nil

	// Children in rpo order, the lists carved out of one array.
	count := make([]int, n)
	for _, b := range t.rpo {
		if d := t.idom[b.Index]; d != nil {
			count[d.Index]++
		}
	}
	all := make([]*ir.Block, len(t.rpo)-1)
	t.children = make([][]*ir.Block, n)
	off := 0
	for i, c := range count {
		t.children[i] = all[off : off : off+c]
		off += c
	}
	for _, b := range t.rpo {
		if d := t.idom[b.Index]; d != nil {
			t.children[d.Index] = append(t.children[d.Index], b)
		}
	}
	return t
}

// postorder appends b and the blocks reachable from it that are not yet
// visited to t.rpo in post-order. A visited block's rpoNum is 0 until
// BuildDomTree numbers the order.
func (t *DomTree) postorder(b *ir.Block) {
	t.rpoNum[b.Index] = 0
	for _, s := range b.Succs() {
		if t.rpoNum[s.Index] < 0 {
			t.postorder(s)
		}
	}
	t.rpo = append(t.rpo, b)
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoNum[a.Index] > t.rpoNum[b.Index] {
			a = t.idom[a.Index]
		}
		for t.rpoNum[b.Index] > t.rpoNum[a.Index] {
			b = t.idom[b.Index]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (nil for the entry).
func (t *DomTree) Idom(b *ir.Block) *ir.Block { return t.idom[b.Index] }

// Children returns the blocks whose immediate dominator is b.
func (t *DomTree) Children(b *ir.Block) []*ir.Block { return t.children[b.Index] }

// Reachable reports whether b is reachable from the entry.
func (t *DomTree) Reachable(b *ir.Block) bool { return t.rpoNum[b.Index] >= 0 }

// RPO returns the reachable blocks in reverse post-order.
func (t *DomTree) RPO() []*ir.Block { return t.rpo }

// Dominates reports whether a dominates b (every block dominates itself).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	for x := b; x != nil; x = t.idom[x.Index] {
		if x == a {
			return true
		}
	}
	return false
}

// Frontiers computes the dominance frontier of every block
// (Cytron et al.), indexed by Block.Index.
func (t *DomTree) Frontiers() [][]*ir.Block {
	n := len(t.fn.Blocks)
	df := make([][]*ir.Block, n)
	// last[r] is 1 + the Index of the join block most recently added to
	// df[r]: the joins are visited one at a time, so it stands in for a
	// per-runner set.
	last := make([]int, n)
	for _, b := range t.rpo {
		if len(t.preds[b.Index]) < 2 {
			continue
		}
		for _, p := range t.preds[b.Index] {
			if !t.Reachable(p) {
				continue
			}
			runner := p
			for runner != nil && runner != t.idom[b.Index] {
				if last[runner.Index] != b.Index+1 {
					last[runner.Index] = b.Index + 1
					df[runner.Index] = append(df[runner.Index], b)
				}
				runner = t.idom[runner.Index]
			}
		}
	}
	return df
}

// Preds returns the predecessor lists captured when the tree was built.
func (t *DomTree) Preds() [][]*ir.Block { return t.preds }

package analysis

import (
	"loopapalooza/internal/ir"
)

// ReductionKind identifies the operation of a recognized reduction.
type ReductionKind uint8

// Recognized reduction operations.
const (
	RedNone ReductionKind = iota
	RedAdd                // integer sum
	RedFAdd               // float sum
	RedMul                // integer product
	RedFMul               // float product
	RedAnd
	RedOr
	RedXor
	RedMin // via builtin min/fmin
	RedMax // via builtin max/fmax
)

var redNames = [...]string{
	RedNone: "none", RedAdd: "add", RedFAdd: "fadd", RedMul: "mul",
	RedFMul: "fmul", RedAnd: "and", RedOr: "or", RedXor: "xor",
	RedMin: "min", RedMax: "max",
}

// String returns the reduction mnemonic.
func (k ReductionKind) String() string { return redNames[k] }

// Reduction describes a recognized reduction recurrence rooted at a loop
// header phi: an exclusively accumulate-style update chain, as detected by
// LLVM's RecurrenceDescriptor (paper §II-A).
type Reduction struct {
	// Phi is the header phi carrying the accumulator.
	Phi *ir.Instr
	// Kind is the accumulate operation.
	Kind ReductionKind
	// Chain is the in-loop instruction chain from the phi to the latch
	// value, each applying the accumulate operation once.
	Chain []*ir.Instr
}

// reductionOp maps an instruction to its reduction kind, or RedNone.
func reductionOp(i *ir.Instr) ReductionKind {
	switch i.Op {
	case ir.OpAdd:
		return RedAdd
	case ir.OpFAdd:
		return RedFAdd
	case ir.OpMul:
		return RedMul
	case ir.OpFMul:
		return RedFMul
	case ir.OpAnd:
		return RedAnd
	case ir.OpOr:
		return RedOr
	case ir.OpXor:
		return RedXor
	case ir.OpCall:
		switch i.Builtin {
		case "min", "fmin":
			return RedMin
		case "max", "fmax":
			return RedMax
		}
	}
	return RedNone
}

// FindReductions recognizes reduction recurrences among the non-computable
// header phis of a canonical loop. A phi qualifies when:
//
//   - its latch incoming is reached from the phi through a chain of
//     instructions that all apply the same reduction operation;
//   - every link of the chain (including the phi) has exactly one use
//     inside the loop — the next link — so the running value never feeds
//     other computation and the reduction can be decoupled from the loop's
//     critical path (paper §II-A);
//   - the phi and the chain live entirely inside the loop.
func FindReductions(l *Loop, se *ScalarEvolution) []*Reduction {
	if l.Latch == nil || l.Preheader == nil {
		return nil
	}
	var out []*Reduction
	for _, phi := range se.NonComputablePhis() {
		if phi.Parent != l.Header {
			continue
		}
		if r := matchReduction(l, phi); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// loopUses counts the in-loop uses of v and returns its last user. The
// header phis' operands are not counted: the latch incoming of a header
// phi closes the cycle and does not block decoupling. A chain is short and
// a loop small, so a scan per link costs less than a use table per loop.
func loopUses(l *Loop, v ir.Value) (n int, user *ir.Instr) {
	for b := range l.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpPhi && b == l.Header {
				continue
			}
			for _, a := range i.Args {
				if a == v {
					n++
					user = i
				}
			}
		}
	}
	return n, user
}

func matchReduction(l *Loop, phi *ir.Instr) *Reduction {
	latchVal := phi.PhiIncoming(l.Latch)
	cur := ir.Value(phi)
	kind := RedNone
	var chain []*ir.Instr
	for cur != latchVal {
		uses, next := loopUses(l, cur)
		if uses != 1 {
			return nil // value escapes into other in-loop computation
		}
		if !l.Contains(next.Parent) {
			return nil
		}
		k := reductionOp(next)
		if k == RedNone {
			return nil
		}
		if kind == RedNone {
			kind = k
		} else if kind != k {
			return nil // mixed operations: not a recognizable pattern
		}
		// The accumulator must be an operand; the other operand(s) must
		// not be the accumulator again (e.g. x = x + x doubles, which
		// is a computable recurrence anyway, but reject for safety).
		seen := 0
		for _, a := range next.Args {
			if a == cur {
				seen++
			}
		}
		if seen != 1 {
			return nil
		}
		chain = append(chain, next)
		cur = next
		if len(chain) > 64 {
			return nil // defensive bound
		}
	}
	if kind == RedNone || len(chain) == 0 {
		return nil
	}
	// The final link feeds only the phi's back edge (which is not counted
	// as a use); any other in-loop consumer means the running value
	// escapes and the reduction cannot be decoupled.
	if uses, _ := loopUses(l, latchVal); uses != 0 {
		return nil
	}
	return &Reduction{Phi: phi, Kind: kind, Chain: chain}
}

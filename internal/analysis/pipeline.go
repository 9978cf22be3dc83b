package analysis

import (
	"fmt"
	"slices"
	"sync"

	"loopapalooza/internal/ir"
)

// LoopMeta is the per-loop output of the compile-time component: everything
// the run-time limit study needs to know about one canonical loop.
type LoopMeta struct {
	// Loop is the canonical loop (preheader + unique latch).
	Loop *Loop
	// Seq is a stable per-module sequence number.
	Seq int
	// SCEV is the scalar-evolution classification of the header phis.
	SCEV *ScalarEvolution
	// Computable are header phis with an add-recurrence evolution
	// (IVs and MIVs): never a parallelization constraint.
	Computable []*ir.Instr
	// Reductions are recognized reduction recurrences among the
	// non-computable phis.
	Reductions []*Reduction
	// NonComputable are the remaining header phis: true register LCDs
	// that are neither computable nor reductions.
	NonComputable []*ir.Instr
	// Observed is NonComputable followed by the reduction phis: the
	// phis whose per-iteration values the run-time observes. The engine
	// selects the subset that constrains parallelism per configuration
	// (reduc0 adds the reduction phis to the constraint set).
	Observed []*ir.Instr
	// ObservedLatch are the latch incoming values of Observed, in the
	// same order: the per-iteration producers.
	ObservedLatch []ir.Value
	// HasCall reports whether any block of the loop contains a call.
	HasCall bool
	// HasNonPureCall reports whether the loop contains a call that is
	// not compiler-proven pure (constrains fn1).
	HasNonPureCall bool
	// HasUnsafeOrIOCall reports whether the loop contains a call that
	// transitively reaches I/O or non-re-entrant library state
	// (constrains fn2).
	HasUnsafeOrIOCall bool

	// id is Loop.ID(), computed once when the meta is built.
	id string
}

// ID returns the loop's stable identifier, "function:header".
func (lm *LoopMeta) ID() string {
	if lm.id == "" { // a meta built outside AnalyzeModule
		return lm.Loop.ID()
	}
	return lm.id
}

// NumObservedNonComputable returns how many leading entries of Observed are
// plain non-computable LCDs (the rest are reduction phis).
func (lm *LoopMeta) NumObservedNonComputable() int { return len(lm.NonComputable) }

// FuncInfo is the analysis result for one function.
type FuncInfo struct {
	// Fn is the analyzed function.
	Fn *ir.Function
	// Dom is the dominator tree after canonicalization.
	Dom *DomTree
	// Forest is the loop forest after canonicalization.
	Forest *LoopForest
	// Metas are the loop metadata records, outer loops first.
	Metas []*LoopMeta
	// HeaderMeta maps a loop header block to its metadata.
	HeaderMeta map[*ir.Block]*LoopMeta
	// MetaByBlock is HeaderMeta as a dense slice indexed by Block.Index
	// (nil entries for non-header blocks): the interpreter's per-transfer
	// loop-event lookup without a map probe.
	MetaByBlock []*LoopMeta
}

// ModuleInfo is the full compile-time analysis of a module.
type ModuleInfo struct {
	// Mod is the analyzed (and canonicalized) module.
	Mod *ir.Module
	// Funcs maps each function to its analysis.
	Funcs map[*ir.Function]*FuncInfo
	// Purity is the module-wide call classification.
	Purity *Purity
	// Loops lists every loop meta in the module, in a stable order.
	Loops []*LoopMeta

	// Lowered memoizes the bytecode compilation of this module: the
	// bytecode engine lowers each function exactly once per ModuleInfo
	// (concurrent runs share the result through Once) and caches it here.
	// Prog's concrete type is owned by internal/bytecode; hosting the
	// slot on the analysis ties the lowering's lifetime to the analysis
	// it was derived from instead of leaking through a global map.
	Lowered struct {
		Once sync.Once
		Prog any
		Err  error
	}
}

// AnalyzeModule runs the full compile-time pipeline on m, mutating it:
// loop simplification (canonical preheaders/latches), SSA promotion
// (mem2reg), scalar evolution, reduction recognition, purity analysis, and
// per-loop call classification. The module must verify before and after.
func AnalyzeModule(m *ir.Module) (*ModuleInfo, error) {
	return analyzeModule(m, false)
}

// AnalyzeModuleStrict is AnalyzeModule with the verifier run after every
// individual pass, so a pass that breaks an IR invariant is named in the
// error instead of being discovered (or masked) passes later. It is the
// pipeline entry point of the metamorphic test suite and the fuzzing
// harness; production callers use AnalyzeModule, which verifies only at
// the pipeline boundaries.
func AnalyzeModuleStrict(m *ir.Module) (*ModuleInfo, error) {
	return analyzeModule(m, true)
}

func analyzeModule(m *ir.Module, strict bool) (*ModuleInfo, error) {
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("analysis: input module invalid: %w", err)
	}
	check := func(pass string, f *ir.Function) error {
		if !strict {
			return nil
		}
		if err := ir.Verify(m); err != nil {
			return fmt.Errorf("analysis: module invalid after %s on %s: %w", pass, f.Name, err)
		}
		return nil
	}
	info := &ModuleInfo{Mod: m, Funcs: map[*ir.Function]*FuncInfo{}}
	for _, f := range m.Funcs {
		RemoveUnreachable(f)
		if err := check("unreachable-elimination", f); err != nil {
			return nil, err
		}
		Mem2Reg(f)
		if err := check("mem2reg", f); err != nil {
			return nil, err
		}
		DeadCodeElim(f)
		if err := check("dce", f); err != nil {
			return nil, err
		}
		dt, forest := LoopSimplify(f)
		if err := check("loop-simplify", f); err != nil {
			return nil, err
		}
		// mem2reg before simplify handles straight-line code;
		// a second promotion pass after loop canonicalization catches
		// slots whose loads/stores were rearranged by edge splitting.
		if Mem2Reg(f) > 0 {
			if err := check("mem2reg (second pass)", f); err != nil {
				return nil, err
			}
			DeadCodeElim(f)
			if err := check("dce (second pass)", f); err != nil {
				return nil, err
			}
			dt, forest = LoopSimplify(f)
			if err := check("loop-simplify (second pass)", f); err != nil {
				return nil, err
			}
		}
		info.Funcs[f] = &FuncInfo{Fn: f, Dom: dt, Forest: forest, HeaderMeta: map[*ir.Block]*LoopMeta{}}
	}
	info.Purity = AnalyzePurity(m)

	seq := 0
	for _, f := range m.Funcs {
		fi := info.Funcs[f]
		for _, l := range fi.Forest.All {
			lm := buildLoopMeta(l, info.Purity)
			lm.Seq = seq
			seq++
			fi.Metas = append(fi.Metas, lm)
			fi.HeaderMeta[l.Header] = lm
			info.Loops = append(info.Loops, lm)
		}
		f.Renumber()
		fi.MetaByBlock = make([]*LoopMeta, len(f.Blocks))
		for hdr, lm := range fi.HeaderMeta {
			fi.MetaByBlock[hdr.Index] = lm
		}
		// The IR is final: freeze the dense register numbering the
		// interpreter's flat frames index by.
		f.NumberValues()
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("analysis: module invalid after canonicalization: %w", err)
	}
	return info, nil
}

func buildLoopMeta(l *Loop, pur *Purity) *LoopMeta {
	lm := &LoopMeta{Loop: l, id: l.ID()}
	lm.SCEV = ComputeSCEV(l)
	lm.Computable = lm.SCEV.ComputablePhis()
	lm.Reductions = FindReductions(l, lm.SCEV)
	for _, p := range lm.SCEV.NonComputablePhis() {
		if !slices.ContainsFunc(lm.Reductions, func(r *Reduction) bool { return r.Phi == p }) {
			lm.NonComputable = append(lm.NonComputable, p)
		}
	}

	lm.Observed = append(lm.Observed, lm.NonComputable...)
	for _, r := range lm.Reductions {
		lm.Observed = append(lm.Observed, r.Phi)
	}
	if l.Latch != nil {
		for _, p := range lm.Observed {
			lm.ObservedLatch = append(lm.ObservedLatch, p.PhiIncoming(l.Latch))
		}
	}

	for _, b := range l.Header.Parent.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, i := range b.Instrs {
			if i.Op != ir.OpCall {
				continue
			}
			lm.HasCall = true
			class := pur.ClassifyCall(i)
			if class != CallPure {
				lm.HasNonPureCall = true
			}
			switch class {
			case CallIO, CallUnsafe:
				lm.HasUnsafeOrIOCall = true
			case CallInstrumented:
				if i.Callee != nil && (pur.CallsUnsafe(i.Callee) || pur.DoesIO(i.Callee)) {
					lm.HasUnsafeOrIOCall = true
				}
			}
		}
	}
	return lm
}

package ir

import (
	"errors"
	"fmt"
	"slices"
)

// Verify checks structural well-formedness of a module:
//
//   - every block has exactly one terminator, at the end;
//   - phi nodes are grouped at block heads and their incoming blocks match
//     the block's predecessors exactly;
//   - branch targets belong to the same function;
//   - value operands are defined in the function (params, globals,
//     constants, or instructions of the same function);
//   - operand types are consistent with opcodes;
//   - the module has no two functions or globals with the same name.
//
// Verify returns an error describing the first few problems found.
func Verify(m *Module) error {
	var errs []error
	add := func(format string, args ...any) {
		if len(errs) < 20 {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	seenFn := map[string]bool{}
	for _, f := range m.Funcs {
		if seenFn[f.Name] {
			add("duplicate function @%s", f.Name)
		}
		seenFn[f.Name] = true
	}
	seenG := map[string]bool{}
	for _, g := range m.Globals {
		if seenG[g.Nm] {
			add("duplicate global @%s", g.Nm)
		}
		seenG[g.Nm] = true
		if g.Size < 1 {
			add("global @%s has non-positive size %d", g.Nm, g.Size)
		}
	}

	for _, f := range m.Funcs {
		verifyFunc(f, add)
	}
	return errors.Join(errs...)
}

func verifyFunc(f *Function, add func(string, ...any)) {
	if len(f.Blocks) == 0 {
		add("@%s: function has no blocks", f.Name)
		return
	}
	named := 0
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i.Op.HasResult() && i.Ty.Kind() != KVoid {
				named++
			}
		}
	}
	names := newNameSet(named)
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i.Op.HasResult() && i.Ty.Kind() != KVoid && !names.add(i) {
				add("@%s: duplicate value name %%%s", f.Name, i.Nm)
			}
		}
	}

	f.Renumber()
	preds := f.Preds()
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			add("@%s.%s: block lacks a terminator", f.Name, b.Name)
			continue
		}
		for k, i := range b.Instrs {
			if i.Op.IsTerminator() && k != len(b.Instrs)-1 {
				add("@%s.%s: terminator %s not at block end", f.Name, b.Name, i.Op)
			}
			if i.Op == OpPhi && k > b.FirstNonPhi() {
				add("@%s.%s: phi %%%s after non-phi instruction", f.Name, b.Name, i.Nm)
			}
			if i.Parent != b {
				add("@%s.%s: instruction %s has wrong parent", f.Name, b.Name, i.Op)
			}
			for _, tgt := range i.Blocks {
				if !f.HasBlock(tgt) {
					add("@%s.%s: %s targets block outside function", f.Name, b.Name, i.Op)
				}
			}
			for _, a := range i.Args {
				defined := true
				switch x := a.(type) {
				case *IntConst, *FloatConst, *BoolConst, *NullConst, *Global:
				case *Param:
					defined = slices.Contains(f.Params, x)
				case *Instr:
					defined = f.defines(x)
				case nil:
					add("@%s.%s: nil operand of %s", f.Name, b.Name, i.Op)
				default:
					add("@%s.%s: unknown operand kind %T", f.Name, b.Name, a)
				}
				if !defined {
					add("@%s.%s: operand %s of %s not defined in function", f.Name, b.Name, a.Name(), i.Op)
				}
			}
			verifyTypes(f, b, i, add)
		}
		// Phi incoming blocks must match predecessors exactly.
		for _, phi := range b.Phis() {
			if len(phi.Args) != len(phi.Blocks) {
				add("@%s.%s: phi %%%s has %d values but %d blocks", f.Name, b.Name, phi.Nm, len(phi.Args), len(phi.Blocks))
				continue
			}
			for _, p := range preds[b.Index] {
				if phi.PhiIncoming(p) == nil {
					add("@%s.%s: phi %%%s missing incoming for pred .%s", f.Name, b.Name, phi.Nm, p.Name)
				}
			}
			for _, in := range phi.Blocks {
				if !slices.Contains(preds[b.Index], in) {
					add("@%s.%s: phi %%%s has incoming from non-pred .%s", f.Name, b.Name, phi.Nm, in.Name)
				}
			}
		}
	}
}

// defines reports whether i is a result-producing instruction listed in
// f's blocks. It wants a current Renumber.
func (f *Function) defines(i *Instr) bool {
	if i == nil || !i.Op.HasResult() || i.Ty.Kind() == KVoid {
		return false
	}
	if f.Owns(i) {
		return true
	}
	// Owns misses an instruction of f only when its Parent is wrong or
	// it is listed twice, and the verifier reports either on its own.
	// Search, so that its operands are not reported as well.
	for _, b := range f.Blocks {
		if slices.Contains(b.Instrs, i) {
			return true
		}
	}
	return false
}

// nameSet is an open-addressing hash set of instructions keyed by value
// name: the verifier's duplicate-name check allocates one slice per
// function where a map of strings would grow bucket by bucket.
type nameSet []*Instr

// newNameSet returns a set for n names, at most two thirds full.
func newNameSet(n int) nameSet {
	size := 8
	for size < n+n/2 {
		size *= 2
	}
	return make(nameSet, size)
}

// add inserts i and reports whether no instruction of the same name was
// in the set.
func (s nameSet) add(i *Instr) bool {
	h := uint32(2166136261) // FNV-1a
	for k := 0; k < len(i.Nm); k++ {
		h ^= uint32(i.Nm[k])
		h *= 16777619
	}
	mask := uint32(len(s) - 1)
	for h &= mask; s[h] != nil; h = (h + 1) & mask {
		if s[h].Nm == i.Nm {
			return false
		}
	}
	s[h] = i
	return true
}

func verifyTypes(f *Function, b *Block, i *Instr, add func(string, ...any)) {
	at := func(k int) Type {
		if k < len(i.Args) && i.Args[k] != nil {
			return i.Args[k].Type()
		}
		return Void
	}
	want := func(n int) bool {
		if len(i.Args) != n {
			add("@%s.%s: %s wants %d operands, has %d", f.Name, b.Name, i.Op, n, len(i.Args))
			return false
		}
		return true
	}
	switch {
	case i.Op.IsBinaryArith():
		if !want(2) {
			return
		}
		isFloatOp := i.Op == OpFAdd || i.Op == OpFSub || i.Op == OpFMul || i.Op == OpFDiv
		wantK := KInt
		if isFloatOp {
			wantK = KFloat
		}
		if at(0).Kind() != wantK || at(1).Kind() != wantK {
			add("@%s.%s: %s operand kinds %s,%s (want %s)", f.Name, b.Name, i.Op, at(0), at(1), Type{Base: wantK})
		}
	case i.Op.IsCompare():
		if !want(2) {
			return
		}
		if at(0).Kind() != at(1).Kind() {
			add("@%s.%s: %s compares %s with %s", f.Name, b.Name, i.Op, at(0), at(1))
		}
		if i.Ty != Bool {
			add("@%s.%s: %s result is %s, want i1", f.Name, b.Name, i.Op, i.Ty)
		}
	case i.Op == OpLoad:
		if want(1) && !at(0).IsPtr() {
			add("@%s.%s: load address has type %s", f.Name, b.Name, at(0))
		}
	case i.Op == OpStore:
		if want(2) && !at(0).IsPtr() {
			add("@%s.%s: store address has type %s", f.Name, b.Name, at(0))
		}
	case i.Op == OpAddPtr:
		if want(2) {
			if !at(0).IsPtr() {
				add("@%s.%s: addptr base has type %s", f.Name, b.Name, at(0))
			}
			if at(1).Kind() != KInt {
				add("@%s.%s: addptr index has type %s", f.Name, b.Name, at(1))
			}
		}
	case i.Op == OpAlloca:
		if want(1) && at(0).Kind() != KInt {
			add("@%s.%s: alloca size has type %s", f.Name, b.Name, at(0))
		}
	case i.Op == OpBr:
		if want(1) && at(0) != Bool {
			add("@%s.%s: branch condition has type %s", f.Name, b.Name, at(0))
		}
		if len(i.Blocks) != 2 {
			add("@%s.%s: br wants 2 targets, has %d", f.Name, b.Name, len(i.Blocks))
		}
	case i.Op == OpJmp:
		if len(i.Blocks) != 1 {
			add("@%s.%s: jmp wants 1 target, has %d", f.Name, b.Name, len(i.Blocks))
		}
	case i.Op == OpRet:
		if f.Ret.Kind() == KVoid {
			if len(i.Args) != 0 {
				add("@%s.%s: ret with value in void function", f.Name, b.Name)
			}
		} else {
			if len(i.Args) != 1 || at(0).Kind() != f.Ret.Kind() {
				add("@%s.%s: ret value/type mismatch (fn returns %s)", f.Name, b.Name, f.Ret)
			}
		}
	case i.Op == OpCall:
		if i.Callee != nil {
			if len(i.Args) != len(i.Callee.Params) {
				add("@%s.%s: call @%s with %d args, want %d", f.Name, b.Name, i.Callee.Name, len(i.Args), len(i.Callee.Params))
			} else {
				for k, p := range i.Callee.Params {
					if at(k).Kind() != p.Ty.Kind() {
						add("@%s.%s: call @%s arg %d has type %s, want %s", f.Name, b.Name, i.Callee.Name, k, at(k), p.Ty)
					}
				}
			}
		} else if i.Builtin == "" {
			add("@%s.%s: call with neither callee nor builtin", f.Name, b.Name)
		}
	case i.Op == OpPhi:
		for k := range i.Args {
			if at(k).Kind() != i.Ty.Kind() {
				add("@%s.%s: phi %%%s incoming %d has type %s, want %s", f.Name, b.Name, i.Nm, k, at(k), i.Ty)
			}
		}
	}
}

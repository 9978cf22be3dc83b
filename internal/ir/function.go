package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Block is a basic block: a straight-line sequence of instructions ending in
// exactly one terminator. Phi instructions, if any, appear first.
type Block struct {
	// Name is unique within the function.
	Name string
	// Instrs are the instructions, terminator last.
	Instrs []*Instr
	// Parent is the containing function.
	Parent *Function
	// Index is the position of the block in Parent.Blocks. It is kept
	// up to date by Function.Renumber and used as a dense key by analyses.
	Index int

	// first is the Instr.Index of the block's first instruction, set by
	// Renumber, so Function.Owns finds an instruction without a search.
	first int
}

// Terminator returns the block's terminator, or nil if the block is
// unterminated (only during construction).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks in terminator order.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Blocks
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return b.Instrs[:n]
}

// FirstNonPhi returns the index of the first non-phi instruction.
func (b *Block) FirstNonPhi() int {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return n
}

// Append adds an instruction to the end of the block and sets its parent.
func (b *Block) Append(i *Instr) {
	i.Parent = b
	b.Instrs = append(b.Instrs, i)
}

// InsertBefore inserts instruction i at position idx.
func (b *Block) InsertBefore(idx int, i *Instr) {
	i.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = i
}

// RemoveAt deletes the instruction at position idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// String returns the block label.
func (b *Block) String() string { return "." + b.Name }

// Function is a user-defined function: a parameter list, a return type, and
// a CFG of basic blocks (entry first).
type Function struct {
	// Name is the function's name, unique within the module.
	Name string
	// Params are the formal parameters.
	Params []*Param
	// Ret is the return type (Void for procedures).
	Ret Type
	// Blocks are the basic blocks; Blocks[0] is the entry.
	Blocks []*Block
	// Module is the containing module.
	Module *Module

	// numRegs is the register-frame size assigned by NumberValues
	// (params + result-producing instructions); 0 until numbered.
	numRegs  int
	numbered bool

	nameSeq int
}

// NumberValues assigns dense register slots to the function's values:
// parameters occupy slots [0, len(Params)) (their existing Index), and every
// result-producing instruction receives the next free slot (Instr.Slot;
// resultless instructions get -1). It returns the total register count and
// is idempotent. Call it once the IR is final — after all transformation
// passes — since later instruction insertion would invalidate the numbering.
func (f *Function) NumberValues() int {
	n := len(f.Params)
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i.Op.HasResult() && i.Ty.Kind() != KVoid {
				i.Slot = n
				n++
			} else {
				i.Slot = -1
			}
		}
	}
	f.numRegs = n
	f.numbered = true
	return n
}

// NumRegs returns the register-frame size assigned by NumberValues.
func (f *Function) NumRegs() int { return f.numRegs }

// Numbered reports whether NumberValues has run on this function.
func (f *Function) Numbered() bool { return f.numbered }

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh block with the given name hint to the function.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{Name: f.uniqueBlockName(name), Parent: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

func (f *Function) uniqueBlockName(hint string) string {
	if hint == "" {
		hint = "bb"
	}
	name := hint
	for n := 1; ; n++ {
		found := false
		for _, b := range f.Blocks {
			if b.Name == name {
				found = true
				break
			}
		}
		if !found {
			return name
		}
		name = hint + strconv.Itoa(n)
	}
}

// NextName returns a fresh SSA value name with the given hint: the hint, a
// dot, and the function's next sequence number. The sequence number holds
// no dot and differs on every call, so the names of one function are
// distinct whatever the hints are ("a12" and "a1" give "a12.1" and "a1.2").
func (f *Function) NextName(hint string) string {
	if hint == "" {
		hint = "t"
	}
	f.nameSeq++
	return hint + "." + strconv.Itoa(f.nameSeq)
}

// Renumber refreshes Block.Index and Instr.Index after blocks or
// instructions have been added or removed. It returns the number of
// instructions, the length of a slice indexed by Instr.Index.
func (f *Function) Renumber() int {
	n := 0
	for i, b := range f.Blocks {
		b.Index = i
		b.first = n
		for _, ins := range b.Instrs {
			ins.Index = int32(n)
			n++
		}
	}
	return n
}

// HasBlock reports whether b is a block of f at the position its Index
// names, which holds for every block of f after Renumber.
func (f *Function) HasBlock(b *Block) bool {
	return b != nil && b.Index >= 0 && b.Index < len(f.Blocks) && f.Blocks[b.Index] == b
}

// Owns reports whether i is an instruction of f at the position its Index
// names: its parent is a block of f that lists i there. After Renumber it
// holds for every instruction of f whose Parent is right, so a pass can key
// per-call slices by Instr.Index and ignore anything Owns rejects.
func (f *Function) Owns(i *Instr) bool {
	if i == nil || !f.HasBlock(i.Parent) {
		return false
	}
	k := int(i.Index) - i.Parent.first
	return k >= 0 && k < len(i.Parent.Instrs) && i.Parent.Instrs[k] == i
}

// Preds returns, for every block, its predecessor blocks, in block order
// and once per edge. The result is indexed by Block.Index; call Renumber
// first if the block list changed. A branch to a block of another
// function is no edge of f and is left out. The lists share one backing
// array.
func (f *Function) Preds() [][]*Block {
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if f.HasBlock(s) {
				edges++
			}
		}
	}
	all := make([]*Block, edges)
	preds := make([][]*Block, len(f.Blocks))
	// Count each block's in-edges in the length of its list, then carve
	// the lists out of all and fill them in block order.
	for i := range preds {
		preds[i] = all[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if f.HasBlock(s) {
				preds[s.Index] = preds[s.Index][:len(preds[s.Index])+1]
			}
		}
	}
	off := 0
	for i, p := range preds {
		preds[i] = all[off : off : off+len(p)]
		off += len(p)
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if f.HasBlock(s) {
				preds[s.Index] = append(preds[s.Index], b)
			}
		}
	}
	return preds
}

// RemoveBlock deletes block b from the function and renumbers.
// The caller is responsible for having removed all edges into b.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			break
		}
	}
	f.Renumber()
}

// InstrCount returns the static number of instructions in the function.
func (f *Function) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// String renders the function in an LLVM-flavoured text form.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s @%s(", f.Ret, f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", p.Ty, p.Name())
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, ".%s:\n", b.Name)
		for _, ins := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", ins)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Module is a compilation unit: globals plus functions.
type Module struct {
	// Name identifies the module (usually the source file or benchmark).
	Name string
	// Globals are module-level allocations in declaration order.
	Globals []*Global
	// Funcs are the functions in declaration order.
	Funcs []*Function
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module { return &Module{Name: name} }

// AddFunction creates an empty function (no blocks yet) in the module.
func (m *Module) AddFunction(name string, ret Type, params ...*Param) *Function {
	for i, p := range params {
		p.Index = i
	}
	f := &Function{Name: name, Ret: ret, Params: params, Module: m}
	m.Funcs = append(m.Funcs, f)
	return f
}

// AddGlobal creates a module-level allocation of size words.
func (m *Module) AddGlobal(name string, elem Type, size int64) *Global {
	g := &Global{Nm: name, Elem: elem, Size: size}
	m.Globals = append(m.Globals, g)
	return g
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Nm == name {
			return g
		}
	}
	return nil
}

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, g := range m.Globals {
		sb.WriteString(g.String())
		sb.WriteString("\n")
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

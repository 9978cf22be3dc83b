package interp

import (
	"fmt"
	"math"

	"loopapalooza/internal/ir"
)

// Memory layout constants (word addresses).
const (
	// NullAddr is the null pointer.
	NullAddr = 0
	// GlobalBase is the first global address.
	GlobalBase = 16
	// HeapBase is the first heap address.
	HeapBase = 1 << 30
	// StackTop is one past the highest stack address; the stack grows
	// down from here.
	StackTop = 1 << 40
	// DefaultStackWords bounds the stack (per execution).
	DefaultStackWords = 1 << 22
	// DefaultHeapWords bounds the heap (per execution).
	DefaultHeapWords = 1 << 26
)

// IsStackAddr reports whether a word address lies in the stack segment.
// The limit-study engine uses this to apply the cactus-stack exemption:
// stack cells in frames younger than the current iteration are private.
func IsStackAddr(addr int64) bool { return addr >= StackTop-DefaultStackWords && addr < StackTop }

// Memory is the simulated flat memory: three segments of 64-bit words. It
// is shared by both execution engines (the tree-walking interpreter and
// the bytecode VM), so segment bounds, error messages, and the
// zero-on-reuse stack discipline cannot drift between them.
//
// A word holds a value's payload bits and no kind, as memory does in
// LLVM IR: Store writes a float's IEEE bits and any other value's I
// field (Val.Bits), and Load rebuilds the value at the kind the loading
// instruction names. That is exact because a cell is always read at the
// kind it was written (LPC has no casts, assignment needs equal types,
// and alloc and allocf return int* and float*). A never-written cell is
// a zero word, which reads back as the zero of the load's kind.
type Memory struct {
	globals    []uint64 // addresses [GlobalBase, GlobalBase+len)
	heap       []uint64 // addresses [HeapBase, HeapBase+len)
	heapLimit  int64
	stack      []uint64 // stack[i] holds address StackTop-1-i
	stackLimit int64
	// SP is the stack pointer: next free stack address + 1 boundary;
	// valid cells are [SP, StackTop). Engines save and restore it around
	// guest calls (frame pop is a plain SP restore).
	SP int64
}

// NewMemory returns a fresh memory with a zeroed global segment of
// globalWords cells and the given memory budget: the heap may grow to
// heapLimit cells and the stack to heapLimit words, or to
// DefaultHeapWords and DefaultStackWords when heapLimit is 0. (The
// engines bound the global segment by the same budget.)
func NewMemory(globalWords, heapLimit int64) *Memory {
	stackLimit := int64(DefaultStackWords)
	if heapLimit <= 0 {
		heapLimit = DefaultHeapWords
	} else {
		stackLimit = min(stackLimit, heapLimit)
	}
	return &Memory{
		globals:    make([]uint64, globalWords),
		heapLimit:  heapLimit,
		stackLimit: stackLimit,
		SP:         StackTop,
	}
}

// SetGlobal writes the global word at offset i (word GlobalBase+i) during
// initializer application.
func (m *Memory) SetGlobal(i int64, w uint64) { m.globals[i] = w }

// Reset returns the memory to its initial state while keeping the
// allocated segments for reuse: the heap empties, the stack pointer
// returns to the top, and the global segment is re-initialized from img
// (which must have the global segment's length; pass nil for none).
func (m *Memory) Reset(img []uint64) {
	m.heap = m.heap[:0]
	m.SP = StackTop
	if len(img) != len(m.globals) {
		m.globals = make([]uint64, len(img))
	}
	copy(m.globals, img)
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// Load reads the word at addr as a value of kind k, the kind the loading
// instruction names.
func (m *Memory) Load(addr int64, k ir.Kind) (Val, error) {
	var w uint64
	switch {
	case addr >= GlobalBase && addr < GlobalBase+int64(len(m.globals)):
		w = m.globals[addr-GlobalBase]
	case addr >= HeapBase && addr < HeapBase+int64(len(m.heap)):
		w = m.heap[addr-HeapBase]
	case addr >= m.SP && addr < StackTop:
		w = m.stack[StackTop-1-addr]
	case addr == NullAddr:
		return Val{}, fmt.Errorf("null pointer load")
	default:
		return Val{}, fmt.Errorf("load from unmapped address %#x", addr)
	}
	if k == ir.KFloat {
		return Val{K: k, F: math.Float64frombits(w)}, nil
	}
	return Val{K: k, I: int64(w)}, nil
}

// Store writes v's payload bits, v.Bits(), to the word at addr.
func (m *Memory) Store(addr int64, v Val) error {
	w := v.Bits()
	switch {
	case addr >= GlobalBase && addr < GlobalBase+int64(len(m.globals)):
		m.globals[addr-GlobalBase] = w
		return nil
	case addr >= HeapBase && addr < HeapBase+int64(len(m.heap)):
		m.heap[addr-HeapBase] = w
		return nil
	case addr >= m.SP && addr < StackTop:
		m.stack[StackTop-1-addr] = w
		return nil
	case addr == NullAddr:
		return fmt.Errorf("null pointer store")
	default:
		return fmt.Errorf("store to unmapped address %#x", addr)
	}
}

// Alloca reserves n stack cells and returns the base address.
func (m *Memory) Alloca(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative alloca size %d", n)
	}
	newSP := m.SP - n
	depth := StackTop - newSP
	if depth > m.stackLimit {
		return 0, fmt.Errorf("stack overflow (%d words, budget %d): %w", depth, m.stackLimit, ErrMemLimit)
	}
	// Zero the reused region (stack frames are reused across calls), then
	// grow by the missing words in one append, which keeps the growth
	// amortized without a reallocation per 1.25x step of a large frame.
	used := StackTop - m.SP
	clear(m.stack[used:min(depth, int64(len(m.stack)))])
	if missing := depth - int64(len(m.stack)); missing > 0 {
		m.stack = append(m.stack, make([]uint64, missing)...)
	}
	m.SP = newSP
	return newSP, nil
}

// HeapAlloc reserves n heap cells (never freed) and returns the base.
func (m *Memory) HeapAlloc(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative alloc size %d", n)
	}
	base := HeapBase + int64(len(m.heap))
	need := int64(len(m.heap)) + n
	if need > m.heapLimit {
		return 0, fmt.Errorf("heap exhausted (%d cells, budget %d): %w", need, m.heapLimit, ErrMemLimit)
	}
	// Grow in place when a Reset left capacity behind, zeroing the
	// reused cells; fall back to append for first-time growth.
	if need <= int64(cap(m.heap)) {
		old := len(m.heap)
		m.heap = m.heap[:need]
		clear(m.heap[old:])
	} else {
		m.heap = append(m.heap, make([]uint64, n)...)
	}
	return base, nil
}

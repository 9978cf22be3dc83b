// Package interp defines how IR modules execute: the simulated
// word-addressed memory, the builtins, and the instrumentation call-backs
// (Hooks) the Loopapalooza run-time consumes — dynamic IR instruction
// counts, loop entry/iteration/exit, memory access addresses, and
// per-iteration values of the observed loop-carried register dependencies
// (paper §III-A). The bytecode VM (internal/bytecode) executes on this
// model in production; Interp, a tree-walker over the IR, is the
// reference tests compare the VM against.
package interp

import (
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/ir"
)

// Val is a runtime value: a tagged 64-bit scalar. Pointers carry the word
// address in I.
type Val struct {
	// K is the value's kind (KInt, KFloat, KBool, or KPtr).
	K ir.Kind
	// I holds integer, boolean (0/1), and pointer payloads.
	I int64
	// F holds float payloads.
	F float64
}

// IntVal returns an integer value.
func IntVal(v int64) Val { return Val{K: ir.KInt, I: v} }

// FloatVal returns a float value.
func FloatVal(v float64) Val { return Val{K: ir.KFloat, F: v} }

// BoolVal returns a boolean value.
func BoolVal(b bool) Val {
	if b {
		return Val{K: ir.KBool, I: 1}
	}
	return Val{K: ir.KBool}
}

// PtrVal returns a pointer value holding a word address.
func PtrVal(addr int64) Val { return Val{K: ir.KPtr, I: addr} }

// Bits returns a canonical 64-bit payload for value prediction: floats are
// their IEEE bit patterns (via the F field's equality), others the I field.
func (v Val) Bits() uint64 {
	if v.K == ir.KFloat {
		return floatBits(v.F)
	}
	return uint64(v.I)
}

// LCDObs is one per-iteration observation of an observed header phi: the
// value produced for the next iteration, and the interpreter clock at which
// its producing instruction executed (-1 when the producer is a constant or
// otherwise available at iteration start).
type LCDObs struct {
	// Val is the value flowing into the phi on the back edge.
	Val Val
	// DefTick is the clock when the producer executed, or -1.
	DefTick int64
}

// Hooks receives instrumentation events during execution. Methods are called
// synchronously from the interpreter loop.
//
// Buffer ownership: the init and obs slices passed to EnterLoop/IterLoop
// are scratch buffers owned by the interpreter and reused across events. A
// hook that retains one observes stale data at the very next loop event —
// interp's ownership-violation test demonstrates exactly that. Consume the
// slices synchronously, or copy their elements before returning. The
// canonical copiers are core's fan-out producer (which copies each event's
// payload once into a sealed chunk, so engines — inline or on pool
// workers — can alias it safely) and core.TraceWriter (which copies by
// encoding); everything else, including core.Engine fed event by event
// when a run's configurations form one engine class, consumes in place
// without copying.
type Hooks interface {
	// Tick advances the dynamic IR instruction counter by n. Ticks are
	// batched: the interpreter may deliver several instructions' worth in
	// one call, but always flushes pending ticks before any other event,
	// so the cumulative count is exact at every event boundary.
	Tick(n int64)
	// EnterLoop fires when control first reaches a loop header from its
	// preheader. sp is the current stack pointer; init holds the values
	// of the observed phis for iteration zero.
	EnterLoop(lm *analysis.LoopMeta, sp int64, init []Val)
	// IterLoop fires on every back edge, with one observation per
	// observed phi (values for the next iteration).
	IterLoop(lm *analysis.LoopMeta, sp int64, obs []LCDObs)
	// ExitLoop fires when control leaves the loop (including via
	// return).
	ExitLoop(lm *analysis.LoopMeta)
	// Load fires for every memory read at the given word address.
	Load(addr int64)
	// Store fires for every memory write at the given word address.
	Store(addr int64)
}

// NopHooks is a Hooks implementation that ignores every event.
type NopHooks struct{}

// Tick implements Hooks.
func (NopHooks) Tick(int64) {}

// EnterLoop implements Hooks.
func (NopHooks) EnterLoop(*analysis.LoopMeta, int64, []Val) {}

// IterLoop implements Hooks.
func (NopHooks) IterLoop(*analysis.LoopMeta, int64, []LCDObs) {}

// ExitLoop implements Hooks.
func (NopHooks) ExitLoop(*analysis.LoopMeta) {}

// Load implements Hooks.
func (NopHooks) Load(int64) {}

// Store implements Hooks.
func (NopHooks) Store(int64) {}

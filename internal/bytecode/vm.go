package bytecode

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// VM executes a compiled Program. One VM is one execution context (like
// one Interp): it owns the simulated memory, the clock, and the frame
// pool, and is not safe for concurrent use. The Program it runs is shared
// and immutable.
//
// Semantics are bit-for-bit the tree-walking interpreter's: the same tick
// accounting (and therefore the same step-limit trip points), the same
// hook event order and payloads, the same error taxonomy and messages.
// The differential oracle in internal/bench holds the two engines to
// that contract over the full benchmark corpus.
type VM struct {
	prog  *Program
	hooks interp.Hooks
	out   io.Writer
	mem   *interp.Memory

	clock    int64
	flushed  int64 // clock value at the last hooks.Tick flush
	maxSteps int64
	limitAt  int64 // first clock value over the step budget (saturated)
	checkAt  int64 // min(limitAt, nextPoll): single hot-path comparison
	nextPoll int64
	ctx      context.Context
	deadline time.Time
	depth    int

	randState uint64

	// initErr defers module-shape faults found during NewVM (which cannot
	// fail) to the first Run call, like interp.New.
	initErr error
	// globalImage is the initialized global segment Reset restores,
	// built on the first Reset: a VM that runs once never needs it.
	globalImage []uint64

	// Zero-allocation steady state: frames pool, scratch event buffers,
	// and a fixed builtin argument buffer.
	frames  []*frame
	obsBuf  []interp.LCDObs
	initBuf []interp.Val
	biBuf   [2]interp.Val
}

// frame is one activation record over the flat register file: ir slots,
// phi staging temporaries, then the preloaded constant pool.
type frame struct {
	regs    []interp.Val
	ticks   []int64
	savedSP int64
}

// vmErr carries execution errors through panic/recover.
type vmErr struct{ err error }

// NewVM prepares an execution context for a compiled program: it lays out
// and initializes the global segment under the configured memory budget
// (identically to interp.New) and arms the amortized poll schedule.
func NewVM(p *Program, cfg interp.Config) *VM {
	vm := &VM{
		prog:      p,
		hooks:     cfg.Hooks,
		out:       cfg.Out,
		maxSteps:  cfg.MaxSteps,
		ctx:       cfg.Ctx,
		deadline:  cfg.Deadline,
		randState: interp.RandSeed,
	}
	if vm.hooks == nil {
		vm.hooks = interp.NopHooks{}
	}
	if vm.out == nil {
		vm.out = io.Discard
	}
	if vm.maxSteps == 0 {
		vm.maxSteps = interp.DefaultMaxSteps
	}
	vm.limitAt = math.MaxInt64
	if vm.maxSteps < math.MaxInt64 {
		vm.limitAt = vm.maxSteps + 1
	}
	if vm.ctx != nil || !vm.deadline.IsZero() {
		vm.nextPoll = interp.PollInterval
	} else {
		vm.nextPoll = math.MaxInt64
	}
	vm.checkAt = min(vm.limitAt, vm.nextPoll)

	globalCap := cfg.MaxHeapCells
	if globalCap <= 0 {
		globalCap = interp.DefaultHeapWords
	}
	total := int64(0)
	for _, g := range p.mod.Globals {
		if g.Size < 0 || total > globalCap-g.Size {
			vm.initErr = fmt.Errorf("globals exceed the memory budget: %w",
				&interp.LimitError{Kind: interp.ErrMemLimit, Limit: globalCap})
			vm.mem = interp.NewMemory(0, cfg.MaxHeapCells)
			return vm
		}
		total += g.Size
	}
	vm.mem = interp.NewMemory(total, cfg.MaxHeapCells)
	p.initGlobals(vm.mem.SetGlobal)
	return vm
}

// initGlobals calls set for every initialized word of the global segment,
// by offset from GlobalBase.
func (p *Program) initGlobals(set func(i int64, w uint64)) {
	base := int64(0)
	for _, g := range p.mod.Globals {
		for i, v := range g.InitInt {
			set(base+int64(i), uint64(v))
		}
		for i, v := range g.InitFloat {
			set(base+int64(i), math.Float64bits(v))
		}
		base += g.Size
	}
}

// Reset returns the VM to its initial state, keeping the pooled frames,
// scratch buffers, and memory segments for reuse: repeated executions of
// the same program reach a zero-allocation steady state.
func (vm *VM) Reset() {
	vm.clock, vm.flushed, vm.depth = 0, 0, 0
	vm.randState = interp.RandSeed
	if vm.ctx != nil || !vm.deadline.IsZero() {
		vm.nextPoll = interp.PollInterval
	} else {
		vm.nextPoll = math.MaxInt64
	}
	vm.checkAt = min(vm.limitAt, vm.nextPoll)
	if vm.initErr != nil {
		return
	}
	if vm.globalImage == nil {
		size := int64(0)
		for _, g := range vm.prog.mod.Globals {
			size += g.Size
		}
		img := make([]uint64, size)
		vm.prog.initGlobals(func(i int64, w uint64) { img[i] = w })
		vm.globalImage = img
	}
	vm.mem.Reset(vm.globalImage)
}

// Clock returns the current dynamic instruction count.
func (vm *VM) Clock() int64 { return vm.clock }

// Run executes fn ("main" by convention) with the given arguments and
// returns its result and the dynamic instruction count.
func (vm *VM) Run(fnName string, args ...interp.Val) (res interp.Result, err error) {
	if vm.initErr != nil {
		return interp.Result{}, fmt.Errorf("interp: %w", vm.initErr)
	}
	fc := vm.prog.byName[fnName]
	if fc == nil {
		return interp.Result{}, fmt.Errorf("interp: no function %q", fnName)
	}
	if len(args) != fc.arity {
		return interp.Result{}, fmt.Errorf("interp: %s takes %d args, got %d", fnName, fc.arity, len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(vmErr)
			if !ok {
				panic(r)
			}
			// The unwind skipped the call-site decrements; reset so a
			// reused VM starts from a clean depth.
			vm.depth = 0
			err = fmt.Errorf("interp: %w", re.err)
		}
	}()
	if vm.depth++; vm.depth > interp.MaxCallDepth {
		vm.failErr(&interp.LimitError{Kind: interp.ErrMemLimit, Limit: interp.MaxCallDepth, Step: vm.clock})
	}
	fr := vm.newFrame(fc)
	copy(fr.regs, args)
	ret := vm.exec(fc, fr)
	vm.freeFrame(fr)
	vm.depth--
	vm.flushTicks()
	return interp.Result{Ret: ret, Steps: vm.clock}, nil
}

// fail aborts the run with a guest-program fault (ErrRuntime class).
func (vm *VM) fail(format string, args ...any) {
	vm.failErr(&interp.RuntimeError{Msg: fmt.Sprintf(format, args...), Step: vm.clock})
}

// failErr aborts the run with an already-classified error.
func (vm *VM) failErr(err error) { panic(vmErr{err: err}) }

// failMem aborts the run with a memory-subsystem error, preserving the
// budget classification when present and downgrading everything else to a
// runtime fault.
func (vm *VM) failMem(err error) {
	if errors.Is(err, interp.ErrMemLimit) {
		vm.failErr(fmt.Errorf("%w (at step %d)", err, vm.clock))
	}
	vm.fail("%v", err)
}

// flushTicks forwards the instruction count accumulated since the last
// flush to the hooks, so every non-tick event observes an exact clock.
func (vm *VM) flushTicks() {
	if d := vm.clock - vm.flushed; d != 0 {
		vm.hooks.Tick(d)
		vm.flushed = vm.clock
	}
}

// tickN charges n dynamic instructions in one step (bulk charges keep the
// step-limit trip clock identical to the tree-walker's tick(n)).
func (vm *VM) tickN(n int64) {
	vm.clock += n
	if vm.clock >= vm.checkAt {
		vm.slowTick()
	}
}

// slowTick is the cold path of the clock check: the hot loop compares the
// clock against a single fused threshold; this resolves which budget the
// threshold stood for.
func (vm *VM) slowTick() {
	if vm.clock > vm.maxSteps {
		vm.failErr(&interp.LimitError{Kind: interp.ErrStepLimit, Limit: vm.maxSteps, Step: vm.clock})
	}
	if vm.clock >= vm.nextPoll {
		vm.poll()
	}
	vm.checkAt = min(vm.limitAt, vm.nextPoll)
}

// poll performs the amortized cancellation and deadline checks.
func (vm *VM) poll() {
	vm.nextPoll = vm.clock + interp.PollInterval
	vm.flushTicks()
	if vm.ctx != nil {
		if err := vm.ctx.Err(); err != nil {
			kind := interp.ErrCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				kind = interp.ErrDeadline
			}
			vm.failErr(&interp.LimitError{Kind: kind, Step: vm.clock})
		}
	}
	if !vm.deadline.IsZero() && time.Now().After(vm.deadline) {
		vm.failErr(&interp.LimitError{Kind: interp.ErrDeadline, Step: vm.clock})
	}
}

// newFrame readies an activation record, reusing a pooled frame when one
// is available. The ir-slot region and definition ticks are zeroed; the
// constant pool is copied into its slots.
func (vm *VM) newFrame(fc *funcCode) *frame {
	var fr *frame
	if l := len(vm.frames); l > 0 {
		fr = vm.frames[l-1]
		vm.frames = vm.frames[:l-1]
		if cap(fr.regs) < fc.frameSize {
			fr.regs = make([]interp.Val, fc.frameSize)
		} else {
			fr.regs = fr.regs[:fc.frameSize]
			clear(fr.regs[:fc.numRegs])
		}
		if cap(fr.ticks) < fc.numRegs {
			fr.ticks = make([]int64, fc.numRegs)
		} else {
			fr.ticks = fr.ticks[:fc.numRegs]
			clear(fr.ticks)
		}
	} else {
		fr = &frame{
			regs:  make([]interp.Val, fc.frameSize),
			ticks: make([]int64, fc.numRegs),
		}
	}
	copy(fr.regs[fc.constBase:], fc.consts)
	fr.savedSP = vm.mem.SP
	return fr
}

// freeFrame returns a finished frame to the pool.
func (vm *VM) freeFrame(fr *frame) { vm.frames = append(vm.frames, fr) }

// exec runs fc to completion in fr and returns its result.
func (vm *VM) exec(fc *funcCode, fr *frame) interp.Val {
	code := fc.code
	regs := fr.regs
	ticks := fr.ticks
	pc := 0
	for {
		in := &code[pc]
		switch in.Op {
		case opAddI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I + regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opSubI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I - regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opMulI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I * regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opDivI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			a, b := regs[in.B].I, regs[in.C].I
			if b == 0 {
				vm.fail("integer division by zero")
			}
			if a == -1<<63 && b == -1 {
				regs[in.A] = interp.Val{K: ir.KInt, I: -1 << 63}
			} else {
				regs[in.A] = interp.Val{K: ir.KInt, I: a / b}
			}
			ticks[in.A] = vm.clock
			pc++
		case opRemI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			a, b := regs[in.B].I, regs[in.C].I
			if b == 0 {
				vm.fail("integer remainder by zero")
			}
			if a == -1<<63 && b == -1 {
				regs[in.A] = interp.Val{K: ir.KInt}
			} else {
				regs[in.A] = interp.Val{K: ir.KInt, I: a % b}
			}
			ticks[in.A] = vm.clock
			pc++
		case opAndI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I & regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opOrI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I | regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opXorI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I ^ regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opShlI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I << (uint64(regs[in.C].I) & 63)}
			ticks[in.A] = vm.clock
			pc++
		case opShrI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: regs[in.B].I >> (uint64(regs[in.C].I) & 63)}
			ticks[in.A] = vm.clock
			pc++
		case opAddF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: regs[in.B].F + regs[in.C].F}
			ticks[in.A] = vm.clock
			pc++
		case opSubF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: regs[in.B].F - regs[in.C].F}
			ticks[in.A] = vm.clock
			pc++
		case opMulF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: regs[in.B].F * regs[in.C].F}
			ticks[in.A] = vm.clock
			pc++
		case opDivF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: regs[in.B].F / regs[in.C].F}
			ticks[in.A] = vm.clock
			pc++
		case opNegI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: -regs[in.B].I}
			ticks[in.A] = vm.clock
			pc++
		case opNegF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: -regs[in.B].F}
			ticks[in.A] = vm.clock
			pc++
		case opNotB:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I == 0)
			ticks[in.A] = vm.clock
			pc++
		case opEqI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I == regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opNeI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I != regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opLtI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I < regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opLeI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I <= regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opGtI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I > regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opGeI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].I >= regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opEqF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].F == regs[in.C].F)
			ticks[in.A] = vm.clock
			pc++
		case opNeF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].F != regs[in.C].F)
			ticks[in.A] = vm.clock
			pc++
		case opLtF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].F < regs[in.C].F)
			ticks[in.A] = vm.clock
			pc++
		case opLeF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.BoolVal(regs[in.B].F <= regs[in.C].F)
			ticks[in.A] = vm.clock
			pc++
		case opGtF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			// !(a<b) && !(a==b), the tree-walker's composition: true when
			// either operand is NaN, unlike the > operator.
			x, y := regs[in.B].F, regs[in.C].F
			regs[in.A] = interp.BoolVal(!(x < y) && x != y)
			ticks[in.A] = vm.clock
			pc++
		case opGeF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			// !(a<b): true when either operand is NaN (see opGtF).
			regs[in.A] = interp.BoolVal(!(regs[in.B].F < regs[in.C].F))
			ticks[in.A] = vm.clock
			pc++
		case opItoF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: float64(regs[in.B].I)}
			ticks[in.A] = vm.clock
			pc++
		case opFtoI:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: int64(regs[in.B].F)}
			ticks[in.A] = vm.clock
			pc++
		case opAlloca:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr, err := vm.mem.Alloca(regs[in.B].I)
			if err != nil {
				vm.failMem(err)
			}
			regs[in.A] = interp.PtrVal(addr)
			ticks[in.A] = vm.clock
			pc++
		case opLoad:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr := regs[in.B].I
			vm.flushTicks()
			vm.hooks.Load(addr)
			v, err := vm.mem.Load(addr, ir.Kind(in.K))
			if err != nil {
				vm.failMem(err)
			}
			regs[in.A] = v
			ticks[in.A] = vm.clock
			pc++
		case opStore:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr := regs[in.B].I
			vm.flushTicks()
			vm.hooks.Store(addr)
			if err := vm.mem.Store(addr, regs[in.A]); err != nil {
				vm.failMem(err)
			}
			pc++
		case opAddPtr:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.PtrVal(regs[in.B].I + regs[in.C].I)
			ticks[in.A] = vm.clock
			pc++
		case opLoadIdx:
			// addptr tick, then load tick, then the load event — the
			// component order of the unfused pair.
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr := regs[in.B].I + regs[in.C].I
			vm.flushTicks()
			vm.hooks.Load(addr)
			v, err := vm.mem.Load(addr, ir.Kind(in.K))
			if err != nil {
				vm.failMem(err)
			}
			regs[in.A] = v
			ticks[in.A] = vm.clock
			pc++
		case opStoreIdx:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr := regs[in.B].I + regs[in.C].I
			vm.flushTicks()
			vm.hooks.Store(addr)
			if err := vm.mem.Store(addr, regs[in.A]); err != nil {
				vm.failMem(err)
			}
			pc++
		case opLoadAddI:
			// Load tick and event first, then the add's tick: the fused
			// result carries the add's definition tick.
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr := regs[in.B].I
			vm.flushTicks()
			vm.hooks.Load(addr)
			v, err := vm.mem.Load(addr, ir.KInt)
			if err != nil {
				vm.failMem(err)
			}
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KInt, I: v.I + regs[in.C].I}
			ticks[in.A] = vm.clock
			pc++
		case opLoadAddF:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			addr := regs[in.B].I
			vm.flushTicks()
			vm.hooks.Load(addr)
			v, err := vm.mem.Load(addr, ir.KFloat)
			if err != nil {
				vm.failMem(err)
			}
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			regs[in.A] = interp.Val{K: ir.KFloat, F: v.F + regs[in.C].F}
			ticks[in.A] = vm.clock
			pc++
		case opBrEqI, opBrNeI, opBrLtI, opBrLeI, opBrGtI, opBrGeI,
			opBrEqF, opBrNeF, opBrLtF, opBrLeF, opBrGtF, opBrGeF:
			// Compare tick, then branch tick (the fused compare's register
			// write is elided: lowering proved it single-use).
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			var taken bool
			switch in.Op {
			case opBrEqI:
				taken = regs[in.B].I == regs[in.C].I
			case opBrNeI:
				taken = regs[in.B].I != regs[in.C].I
			case opBrLtI:
				taken = regs[in.B].I < regs[in.C].I
			case opBrLeI:
				taken = regs[in.B].I <= regs[in.C].I
			case opBrGtI:
				taken = regs[in.B].I > regs[in.C].I
			case opBrGeI:
				taken = regs[in.B].I >= regs[in.C].I
			case opBrEqF:
				taken = regs[in.B].F == regs[in.C].F
			case opBrNeF:
				taken = regs[in.B].F != regs[in.C].F
			case opBrLtF:
				taken = regs[in.B].F < regs[in.C].F
			case opBrLeF:
				taken = regs[in.B].F <= regs[in.C].F
			case opBrGtF:
				x, y := regs[in.B].F, regs[in.C].F
				taken = !(x < y) && x != y
			case opBrGeF:
				taken = !(regs[in.B].F < regs[in.C].F)
			}
			if taken {
				pc = int(in.A)
			} else {
				pc++
			}
		case opBr:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			if regs[in.B].I != 0 {
				pc = int(in.A)
			} else {
				pc++
			}
		case opJmp:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			pc = int(in.A)
		case opGoto:
			pc = int(in.A)
		case opTick:
			vm.tickN(int64(in.A))
			pc++
		case opRet:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			if in.C > 0 {
				vm.flushTicks()
				for _, lm := range fc.exits[in.B : in.B+in.C] {
					vm.hooks.ExitLoop(lm)
				}
			}
			vm.mem.SP = fr.savedSP
			if in.A >= 0 {
				return regs[in.A]
			}
			return interp.Val{}
		case opCall:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			if vm.depth++; vm.depth > interp.MaxCallDepth {
				vm.failErr(&interp.LimitError{Kind: interp.ErrMemLimit, Limit: interp.MaxCallDepth, Step: vm.clock})
			}
			callee := vm.prog.funcs[in.B]
			nf := vm.newFrame(callee)
			for k, s := range fc.argRegs[in.C : int(in.C)+callee.arity] {
				nf.regs[k] = regs[s]
			}
			ret := vm.exec(callee, nf)
			vm.freeFrame(nf)
			vm.depth--
			if in.A >= 0 {
				regs[in.A] = ret
				ticks[in.A] = vm.clock
			}
			pc++
		case opCallB:
			vm.clock++
			if vm.clock >= vm.checkAt {
				vm.slowTick()
			}
			b := &vm.prog.builtins[in.B]
			// The call instruction itself already cost 1 tick; add the
			// registry Cost standing in for the uninstrumented body.
			vm.tickN(b.cost)
			n := int(in.K)
			for k := 0; k < n; k++ {
				vm.biBuf[k] = regs[fc.argRegs[int(in.C)+k]]
			}
			ret, err := interp.EvalBuiltin(b.name, vm.biBuf[:n], vm.mem, vm.out, &vm.randState)
			if err != nil {
				vm.failMem(err)
			}
			if in.A >= 0 {
				regs[in.A] = ret
				ticks[in.A] = vm.clock
			}
			pc++
		case opLoopExit:
			vm.flushTicks()
			for _, lm := range fc.exits[in.A : in.A+in.B] {
				vm.hooks.ExitLoop(lm)
			}
			pc++
		case opLoopEnter:
			d := &fc.enters[in.A]
			if cap(vm.initBuf) < len(d.srcs) {
				vm.initBuf = make([]interp.Val, len(d.srcs))
			}
			init := vm.initBuf[:len(d.srcs)]
			clear(init)
			for k, s := range d.srcs {
				if s >= 0 {
					init[k] = regs[s]
				}
			}
			vm.flushTicks()
			vm.hooks.EnterLoop(d.lm, vm.mem.SP, init)
			pc++
		case opLoopIter:
			d := &fc.iters[in.A]
			if cap(vm.obsBuf) < len(d.lm.Observed) {
				vm.obsBuf = make([]interp.LCDObs, len(d.lm.Observed))
			}
			obs := vm.obsBuf[:len(d.lm.Observed)]
			for k, s := range d.srcs {
				t := int64(-1)
				if ts := d.ticks[k]; ts >= 0 {
					t = ticks[ts]
				}
				obs[k] = interp.LCDObs{Val: regs[s], DefTick: t}
			}
			vm.flushTicks()
			vm.hooks.IterLoop(d.lm, vm.mem.SP, obs)
			pc++
		case opPhiCopy:
			for _, m := range fc.moves[in.A : in.A+in.B] {
				regs[m.dst] = regs[m.src]
				ticks[m.dst] = vm.clock
				vm.clock++
				if vm.clock >= vm.checkAt {
					vm.slowTick()
				}
			}
			pc++
		case opPhiStage:
			tmp := int(in.C)
			for k, m := range fc.moves[in.A : in.A+in.B] {
				regs[tmp+k] = regs[m.src]
			}
			pc++
		case opPhiCommit:
			tmp := int(in.C)
			for k, m := range fc.moves[in.A : in.A+in.B] {
				regs[m.dst] = regs[tmp+k]
				ticks[m.dst] = vm.clock
				vm.clock++
				if vm.clock >= vm.checkAt {
					vm.slowTick()
				}
			}
			pc++
		default:
			vm.fail("bad opcode %s at pc %d", in.Op, pc)
		}
	}
}

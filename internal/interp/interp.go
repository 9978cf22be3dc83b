package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/ir"
)

// Config controls one execution.
type Config struct {
	// Out receives print_* output. Nil discards it.
	Out io.Writer
	// MaxSteps bounds the dynamic instruction count (0 = default).
	MaxSteps int64
	// MaxHeapCells bounds the simulated heap, in 64-bit cells
	// (0 = DefaultHeapWords), and the global segment and the stack to as
	// many cells each (0 = DefaultStackWords for the stack). Exceeding
	// it fails the run with ErrMemLimit.
	MaxHeapCells int64
	// Ctx, when non-nil, cancels the run: the interpreter polls it every
	// PollInterval steps and fails with ErrCanceled (or ErrDeadline when
	// the context carries a deadline that expired).
	Ctx context.Context
	// Deadline, when nonzero, bounds wall-clock time; exceeding it fails
	// the run with ErrDeadline. Polled together with Ctx.
	Deadline time.Time
	// Hooks receives instrumentation events. Nil disables them.
	Hooks Hooks
}

// DefaultMaxSteps bounds runaway executions.
const DefaultMaxSteps = 2_000_000_000

// MaxCallDepth bounds guest call nesting. Guest calls recurse on the host
// stack, so without this cap a deeply recursive guest program would
// exhaust the Go stack long before DefaultMaxSteps trips. Exceeding it
// fails the run with ErrMemLimit (it is a stack-space budget).
const MaxCallDepth = 10_000

// PollInterval is the step granularity of cancellation/deadline polling:
// budgets stay amortized so the hot interpreter loop pays one integer
// comparison per instruction, not a time.Now or channel check.
const PollInterval = 32 * 1024

// Result summarizes one execution.
type Result struct {
	// Ret is main's return value.
	Ret Val
	// Steps is the dynamic IR instruction count (the paper's sequential
	// time metric).
	Steps int64
}

// Interp executes one analyzed module by walking its IR. It is the
// reference implementation the bytecode VM (internal/bytecode) is checked
// against, and only tests run it: production executes on the VM.
type Interp struct {
	info  *analysis.ModuleInfo
	mod   *ir.Module
	hooks Hooks
	out   io.Writer

	mem        *Memory
	globalAddr map[*ir.Global]int64

	clock     int64
	pending   int64 // ticks accumulated since the last hooks.Tick flush
	maxSteps  int64
	depth     int // live guest call nesting, capped at MaxCallDepth
	ctx       context.Context
	deadline  time.Time
	nextPoll  int64
	randState uint64

	// initErr defers module-shape faults found during New (which cannot
	// fail) to the first Run call.
	initErr error

	// Zero-allocation steady state: returned frames are reused by later
	// calls, and the loop-event observation slices are scratch buffers
	// (hooks must not retain them — see Hooks).
	frames  []*frame
	obsBuf  []LCDObs
	initBuf []Val
}

// runtimeErr carries execution errors through panic/recover.
type runtimeErr struct{ err error }

// fail aborts the run with a guest-program fault (ErrRuntime class).
func (in *Interp) fail(format string, args ...any) {
	in.failErr(&RuntimeError{Msg: fmt.Sprintf(format, args...), Step: in.clock})
}

// failErr aborts the run with an already-classified error.
func (in *Interp) failErr(err error) {
	panic(runtimeErr{err: err})
}

// failMem aborts the run with a memory-subsystem error, preserving the
// budget classification when present and downgrading everything else to a
// runtime fault.
func (in *Interp) failMem(err error) {
	if errors.Is(err, ErrMemLimit) {
		in.failErr(fmt.Errorf("%w (at step %d)", err, in.clock))
	}
	in.fail("%v", err)
}

// New prepares an interpreter for an analyzed module: it lays out globals,
// applies initializers, and ensures every function has dense register
// numbering for the flat frames. Only tests call it; see Interp.
func New(info *analysis.ModuleInfo, cfg Config) *Interp {
	in := &Interp{
		info:       info,
		mod:        info.Mod,
		hooks:      cfg.Hooks,
		out:        cfg.Out,
		globalAddr: map[*ir.Global]int64{},
		maxSteps:   cfg.MaxSteps,
		ctx:        cfg.Ctx,
		deadline:   cfg.Deadline,
		randState:  RandSeed,
	}
	// The analysis pipeline numbers every function; cover hand-built
	// modules (tests) that skip it. Single-threaded by construction —
	// concurrent executions always share a ModuleInfo that was numbered
	// once, up front, by AnalyzeModule.
	for _, f := range in.mod.Funcs {
		if !f.Numbered() {
			f.NumberValues()
		}
	}
	if in.hooks == nil {
		in.hooks = NopHooks{}
	}
	if in.out == nil {
		in.out = io.Discard
	}
	if in.maxSteps == 0 {
		in.maxSteps = DefaultMaxSteps
	}
	// Arm amortized polling only when there is something to poll, so
	// budget-free runs pay nothing beyond the step-limit comparison.
	if in.ctx != nil || !in.deadline.IsZero() {
		in.nextPoll = PollInterval
	} else {
		in.nextPoll = math.MaxInt64
	}
	// The global segment is allocated eagerly, so bound it by the same
	// budget as the heap: an adversarial (or fuzzer-generated) module
	// cannot make New allocate unbounded host memory. Overflow-safe: per-
	// global sizes are validated by ir.Verify, but hand-built modules may
	// skip it, so saturate instead of trusting the sum.
	globalCap := cfg.MaxHeapCells
	if globalCap <= 0 {
		globalCap = DefaultHeapWords
	}
	total := int64(0)
	for _, g := range in.mod.Globals {
		in.globalAddr[g] = GlobalBase + total
		if g.Size < 0 || total > globalCap-g.Size {
			in.initErr = fmt.Errorf("globals exceed the memory budget: %w",
				&LimitError{Kind: ErrMemLimit, Limit: globalCap})
			in.mem = NewMemory(0, cfg.MaxHeapCells)
			return in
		}
		total += g.Size
	}
	in.mem = NewMemory(total, cfg.MaxHeapCells)
	for _, g := range in.mod.Globals {
		base := in.globalAddr[g] - GlobalBase
		for i, v := range g.InitInt {
			in.mem.SetGlobal(base+int64(i), uint64(v))
		}
		for i, v := range g.InitFloat {
			in.mem.SetGlobal(base+int64(i), floatBits(v))
		}
	}
	return in
}

// Run executes fn ("main" by convention) with the given arguments and
// returns its result and the dynamic instruction count.
func (in *Interp) Run(fnName string, args ...Val) (res Result, err error) {
	if in.initErr != nil {
		return Result{}, fmt.Errorf("interp: %w", in.initErr)
	}
	fn := in.mod.Func(fnName)
	if fn == nil {
		return Result{}, fmt.Errorf("interp: no function %q", fnName)
	}
	if len(args) != len(fn.Params) {
		return Result{}, fmt.Errorf("interp: %s takes %d args, got %d", fnName, len(fn.Params), len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runtimeErr)
			if !ok {
				panic(r)
			}
			// The unwind skipped the call-site decrements; reset so a
			// reused interpreter starts from a clean depth.
			in.depth = 0
			err = fmt.Errorf("interp: %w", re.err)
		}
	}()
	ret := in.call(fn, args)
	in.flushTicks()
	return Result{Ret: ret, Steps: in.clock}, nil
}

// Clock returns the current dynamic instruction count.
func (in *Interp) Clock() int64 { return in.clock }

func (in *Interp) tick(n int64) {
	in.clock += n
	in.pending += n
	if in.clock > in.maxSteps {
		in.failErr(&LimitError{Kind: ErrStepLimit, Limit: in.maxSteps, Step: in.clock})
	}
	if in.clock >= in.nextPoll {
		in.poll()
	}
}

// flushTicks forwards the accumulated instruction count to the hooks. It
// runs before every other hook event and at the end of the run, so hooks
// observe a clock that is exact at every event boundary while the per-
// instruction hot path stays free of dynamic dispatch.
func (in *Interp) flushTicks() {
	if in.pending != 0 {
		in.hooks.Tick(in.pending)
		in.pending = 0
	}
}

// poll performs the amortized cancellation and deadline checks.
func (in *Interp) poll() {
	in.nextPoll = in.clock + PollInterval
	in.flushTicks()
	if in.ctx != nil {
		if err := in.ctx.Err(); err != nil {
			kind := ErrCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				kind = ErrDeadline
			}
			in.failErr(&LimitError{Kind: kind, Step: in.clock})
		}
	}
	if !in.deadline.IsZero() && time.Now().After(in.deadline) {
		in.failErr(&LimitError{Kind: ErrDeadline, Step: in.clock})
	}
}

// frame is one activation record. Registers are indexed by the dense slots
// Function.NumberValues assigned (params first, then result-producing
// instructions).
type frame struct {
	fn       *ir.Function
	regs     []Val
	defTicks []int64
	savedSP  int64
	loops    []*analysis.LoopMeta // loop instances entered in this frame
	fi       *analysis.FuncInfo
}

func (in *Interp) val(fr *frame, v ir.Value) Val {
	switch x := v.(type) {
	case *ir.IntConst:
		return IntVal(x.V)
	case *ir.FloatConst:
		return FloatVal(x.V)
	case *ir.BoolConst:
		return BoolVal(x.V)
	case *ir.NullConst:
		return PtrVal(NullAddr)
	case *ir.Global:
		return PtrVal(in.globalAddr[x])
	case *ir.Param:
		return fr.regs[x.Index]
	case *ir.Instr:
		return fr.regs[x.Slot]
	}
	in.fail("unknown value %T", v)
	return Val{}
}

// defTickOf returns when v became available, or -1 for values available at
// iteration start (constants, params, loop-invariants).
func (in *Interp) defTickOf(fr *frame, v ir.Value) int64 {
	if i, ok := v.(*ir.Instr); ok {
		return fr.defTicks[i.Slot]
	}
	return -1
}

// newFrame readies an activation record for fn, reusing a returned frame
// when one is available. Register and def-tick slots are zeroed.
func (in *Interp) newFrame(fn *ir.Function) *frame {
	n := fn.NumRegs()
	var fr *frame
	if l := len(in.frames); l > 0 {
		fr = in.frames[l-1]
		in.frames = in.frames[:l-1]
		if cap(fr.regs) < n {
			fr.regs = make([]Val, n)
			fr.defTicks = make([]int64, n)
		} else {
			fr.regs = fr.regs[:n]
			fr.defTicks = fr.defTicks[:n]
			clear(fr.regs)
			clear(fr.defTicks)
		}
		fr.loops = fr.loops[:0]
	} else {
		fr = &frame{regs: make([]Val, n), defTicks: make([]int64, n)}
	}
	fr.fn, fr.savedSP, fr.fi = fn, in.mem.SP, in.info.Funcs[fn]
	return fr
}

// freeFrame returns a finished frame to the pool.
func (in *Interp) freeFrame(fr *frame) { in.frames = append(in.frames, fr) }

func (in *Interp) call(fn *ir.Function, args []Val) Val {
	if in.depth++; in.depth > MaxCallDepth {
		in.failErr(&LimitError{Kind: ErrMemLimit, Limit: MaxCallDepth, Step: in.clock})
	}
	fr := in.newFrame(fn)
	copy(fr.regs, args)
	ret := in.exec(fr)
	in.freeFrame(fr)
	in.depth--
	return ret
}

// exec runs fr's function to completion and returns its result.
func (in *Interp) exec(fr *frame) Val {
	fn := fr.fn
	cur := fn.Entry()
	var prev *ir.Block
	for {
		// Loop events fire on the edge BEFORE the phi copies commit:
		// back-edge observations must read the producers' definition
		// times from the just-finished iteration, not the refreshed
		// phi timestamps.
		if fr.fi != nil {
			in.loopEvents(fr, cur, prev)
		}
		// Phi copies: evaluate all incoming values first (parallel
		// assignment semantics), then commit.
		nPhi := cur.FirstNonPhi()
		if nPhi > 0 && prev != nil {
			in.execPhis(fr, cur, prev, nPhi)
		}

		next, retVal, returned := in.execBody(fr, cur, nPhi)
		if returned {
			// Leaving the function exits any loops still active in
			// this frame.
			if len(fr.loops) > 0 {
				in.flushTicks()
				for i := len(fr.loops) - 1; i >= 0; i-- {
					in.hooks.ExitLoop(fr.loops[i])
				}
			}
			in.mem.SP = fr.savedSP
			return retVal
		}
		prev, cur = cur, next
	}
}

// execPhis performs the parallel phi assignment for an edge prev->cur.
func (in *Interp) execPhis(fr *frame, cur, prev *ir.Block, nPhi int) {
	const maxStackPhis = 8
	var buf [maxStackPhis]Val
	var tmp []Val
	if nPhi <= maxStackPhis {
		tmp = buf[:nPhi]
	} else {
		tmp = make([]Val, nPhi)
	}
	for k := 0; k < nPhi; k++ {
		phi := cur.Instrs[k]
		inc := phi.PhiIncoming(prev)
		if inc == nil {
			in.fail("phi %%%s has no incoming from .%s", phi.Nm, prev.Name)
		}
		tmp[k] = in.val(fr, inc)
	}
	for k := 0; k < nPhi; k++ {
		slot := cur.Instrs[k].Slot
		fr.regs[slot] = tmp[k]
		fr.defTicks[slot] = in.clock
		in.tick(1)
	}
}

// loopEvents fires Enter/Iterate/Exit events for a control transfer
// prev->cur within fr's function.
func (in *Interp) loopEvents(fr *frame, cur, prev *ir.Block) {
	// Exits: pop loops that do not contain the target.
	for len(fr.loops) > 0 {
		top := fr.loops[len(fr.loops)-1]
		if top.Loop.Contains(cur) {
			break
		}
		in.flushTicks()
		in.hooks.ExitLoop(top)
		fr.loops = fr.loops[:len(fr.loops)-1]
	}
	var lm *analysis.LoopMeta
	if mb := fr.fi.MetaByBlock; cur.Index < len(mb) {
		lm = mb[cur.Index]
	} else {
		lm = fr.fi.HeaderMeta[cur] // hand-built FuncInfo without the dense index
	}
	if lm == nil {
		return
	}
	if len(fr.loops) > 0 && fr.loops[len(fr.loops)-1] == lm {
		// Back edge: observe the next iteration's LCD values from the
		// latch incomings (the phis have not been reassigned yet, so
		// producer timestamps belong to the finished iteration). The
		// observation slice is scratch, valid only during the call.
		if cap(in.obsBuf) < len(lm.Observed) {
			in.obsBuf = make([]LCDObs, len(lm.Observed))
		}
		obs := in.obsBuf[:len(lm.Observed)]
		for k, inc := range lm.ObservedLatch {
			obs[k] = LCDObs{Val: in.val(fr, inc), DefTick: in.defTickOf(fr, inc)}
		}
		in.flushTicks()
		in.hooks.IterLoop(lm, in.mem.SP, obs)
		return
	}
	// First arrival: loop entry. The iteration-zero values are the phi
	// incomings along the entry edge. Scratch slice, as above.
	fr.loops = append(fr.loops, lm)
	if cap(in.initBuf) < len(lm.Observed) {
		in.initBuf = make([]Val, len(lm.Observed))
	}
	init := in.initBuf[:len(lm.Observed)]
	clear(init)
	for k, phi := range lm.Observed {
		if prev != nil {
			if inc := phi.PhiIncoming(prev); inc != nil {
				init[k] = in.val(fr, inc)
			}
		}
	}
	in.flushTicks()
	in.hooks.EnterLoop(lm, in.mem.SP, init)
}

// execBody runs the non-phi instructions of a block. It returns the next
// block, or the return value when the function returns.
func (in *Interp) execBody(fr *frame, b *ir.Block, from int) (next *ir.Block, ret Val, returned bool) {
	for k := from; k < len(b.Instrs); k++ {
		i := b.Instrs[k]
		switch i.Op {
		case ir.OpJmp:
			in.tick(1)
			return i.Blocks[0], Val{}, false
		case ir.OpBr:
			in.tick(1)
			if in.val(fr, i.Args[0]).I != 0 {
				return i.Blocks[0], Val{}, false
			}
			return i.Blocks[1], Val{}, false
		case ir.OpRet:
			in.tick(1)
			if len(i.Args) == 1 {
				return nil, in.val(fr, i.Args[0]), true
			}
			return nil, Val{}, true
		default:
			in.execInstr(fr, i)
		}
	}
	in.fail("block .%s fell off the end", b.Name)
	return nil, Val{}, false
}

func (in *Interp) setReg(fr *frame, i *ir.Instr, v Val) {
	fr.regs[i.Slot] = v
	fr.defTicks[i.Slot] = in.clock
}

func (in *Interp) execInstr(fr *frame, i *ir.Instr) {
	in.tick(1)
	switch i.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		a, b := in.val(fr, i.Args[0]), in.val(fr, i.Args[1])
		in.setReg(fr, i, in.intArith(i.Op, a, b))
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		a, b := in.val(fr, i.Args[0]), in.val(fr, i.Args[1])
		in.setReg(fr, i, in.floatArith(i.Op, a.F, b.F))
	case ir.OpNeg:
		in.setReg(fr, i, IntVal(-in.val(fr, i.Args[0]).I))
	case ir.OpFNeg:
		in.setReg(fr, i, FloatVal(-in.val(fr, i.Args[0]).F))
	case ir.OpNot:
		in.setReg(fr, i, BoolVal(in.val(fr, i.Args[0]).I == 0))
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		in.setReg(fr, i, in.compare(i.Op, in.val(fr, i.Args[0]), in.val(fr, i.Args[1])))
	case ir.OpIntToFloat:
		in.setReg(fr, i, FloatVal(float64(in.val(fr, i.Args[0]).I)))
	case ir.OpFloatToInt:
		in.setReg(fr, i, IntVal(int64(in.val(fr, i.Args[0]).F)))
	case ir.OpAlloca:
		n := in.val(fr, i.Args[0]).I
		addr, err := in.mem.Alloca(n)
		if err != nil {
			in.failMem(err)
		}
		in.setReg(fr, i, PtrVal(addr))
	case ir.OpLoad:
		addr := in.val(fr, i.Args[0]).I
		in.flushTicks()
		in.hooks.Load(addr)
		v, err := in.mem.Load(addr, i.Ty.Kind())
		if err != nil {
			in.failMem(err)
		}
		in.setReg(fr, i, v)
	case ir.OpStore:
		addr := in.val(fr, i.Args[0]).I
		in.flushTicks()
		in.hooks.Store(addr)
		if err := in.mem.Store(addr, in.val(fr, i.Args[1])); err != nil {
			in.failMem(err)
		}
	case ir.OpAddPtr:
		base := in.val(fr, i.Args[0])
		idx := in.val(fr, i.Args[1])
		in.setReg(fr, i, PtrVal(base.I+idx.I))
	case ir.OpCall:
		in.execCall(fr, i)
	default:
		in.fail("unhandled opcode %s", i.Op)
	}
}

func (in *Interp) intArith(op ir.Op, a, b Val) Val {
	switch op {
	case ir.OpAdd:
		return IntVal(a.I + b.I)
	case ir.OpSub:
		return IntVal(a.I - b.I)
	case ir.OpMul:
		return IntVal(a.I * b.I)
	case ir.OpDiv:
		if b.I == 0 {
			in.fail("integer division by zero")
		}
		if a.I == -1<<63 && b.I == -1 {
			return IntVal(-1 << 63)
		}
		return IntVal(a.I / b.I)
	case ir.OpRem:
		if b.I == 0 {
			in.fail("integer remainder by zero")
		}
		if a.I == -1<<63 && b.I == -1 {
			return IntVal(0)
		}
		return IntVal(a.I % b.I)
	case ir.OpAnd:
		return IntVal(a.I & b.I)
	case ir.OpOr:
		return IntVal(a.I | b.I)
	case ir.OpXor:
		return IntVal(a.I ^ b.I)
	case ir.OpShl:
		return IntVal(a.I << (uint64(b.I) & 63))
	case ir.OpShr:
		return IntVal(a.I >> (uint64(b.I) & 63))
	}
	in.fail("bad int op %s", op)
	return Val{}
}

func (in *Interp) floatArith(op ir.Op, a, b float64) Val {
	switch op {
	case ir.OpFAdd:
		return FloatVal(a + b)
	case ir.OpFSub:
		return FloatVal(a - b)
	case ir.OpFMul:
		return FloatVal(a * b)
	case ir.OpFDiv:
		return FloatVal(a / b)
	}
	in.fail("bad float op %s", op)
	return Val{}
}

func (in *Interp) compare(op ir.Op, a, b Val) Val {
	var lt, eq bool
	if a.K == ir.KFloat {
		lt, eq = a.F < b.F, a.F == b.F
	} else {
		lt, eq = a.I < b.I, a.I == b.I
	}
	switch op {
	case ir.OpEq:
		return BoolVal(eq)
	case ir.OpNe:
		return BoolVal(!eq)
	case ir.OpLt:
		return BoolVal(lt)
	case ir.OpLe:
		return BoolVal(lt || eq)
	case ir.OpGt:
		return BoolVal(!lt && !eq)
	case ir.OpGe:
		return BoolVal(!lt)
	}
	in.fail("bad compare %s", op)
	return Val{}
}

func (in *Interp) execCall(fr *frame, i *ir.Instr) {
	if i.Callee != nil {
		if in.depth++; in.depth > MaxCallDepth {
			in.failErr(&LimitError{Kind: ErrMemLimit, Limit: MaxCallDepth, Step: in.clock})
		}
		// Evaluate arguments straight into the callee frame: no
		// per-call argument slice.
		nf := in.newFrame(i.Callee)
		for k, a := range i.Args {
			nf.regs[k] = in.val(fr, a)
		}
		ret := in.exec(nf)
		in.freeFrame(nf)
		in.depth--
		if i.Ty.Kind() != ir.KVoid {
			in.setReg(fr, i, ret)
		}
		return
	}
	ret := in.execBuiltin(fr, i)
	if i.Ty.Kind() != ir.KVoid {
		in.setReg(fr, i, ret)
	}
}
